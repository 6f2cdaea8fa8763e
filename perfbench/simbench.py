"""Simulator workloads: one fresh process per call.

``run.py`` starts this file as a child process, so every figure it
reports comes from a process that built nothing before: peak RSS is this
process's own, and no trace is served from an earlier build's cache.
Modes:

``setup``
    Time ``import repro``, the trace builds and the ``Simulator``
    constructions of the workload's cells, print them, exit.
``measure``
    The same set-up and one untimed warm-up round, after which the
    process's peak RSS is read (before the probe's working set exists),
    then timed rounds of ``Simulator(...).run()`` over every cell until
    ``--seconds`` pass, each run just after a host-speed probe
    (probe.py).  Tracing is off.  Every result's digest is checked
    against the pins.
``traced``
    Per-layer numbers: set-up split into trace build, next-reference
    index build and engine construction, then alternating untraced and
    ``PhaseProfiler``-traced rounds, so the tracing overhead is measured
    against rounds run moments apart.  With ``--cells`` it profiles
    the listed cells instead of a workload's, checked against the
    digests in ``--pins`` (svc-mixed passes its cold cells and the
    digests the service returned for them).
``pin``
    Recompute the pinned digests and write them.  Where the runner knows
    the trace, ``repro.runner.execute_cell`` (the path ``repro-sim run``
    and the service take) must give the same digest.

The calls are the ones ``repro-sim run`` makes: ``repro.trace.build``,
``Simulator(...)`` with the cell's ``SimConfig`` and scale-adjusted
policy parameters, ``.run()``, then ``result_digest``.
"""

import argparse
import json
import sys
import time

T0 = time.perf_counter()

from common import ROOT, mean, median, require_checkout, vm_hwm_mb  # noqa: E402
from probe import PROBE_REF_S, probe_s  # noqa: E402

#: (trace, policy, disks, discipline, scale) per workload.  See README.md
#: for why each cell is here.
WORKLOADS = {
    "sim-engine": [
        ("synth", "demand", 1, "fcfs", 0.1),
        ("synth", "aggressive", 2, "sstf", 0.1),
        ("synth-xl", "aggressive", 4, "cscan", 0.005),
    ],
    "sim-policy": [
        ("glimpse", "forestall", 4, "cscan", 0.2),
        ("xds", "forestall", 2, "cscan", 0.5),
        ("synth-xl", "forestall", 4, "cscan", 0.005),
    ],
}

#: ``--seed n`` selects trace seed ``n % PIN_SEEDS``; pins.json holds the
#: digest of every cell under each of them.
PIN_SEEDS = 8
PINS = ROOT / "perfbench" / "pins.json"


def pin_key(trace, policy, disks, discipline, scale, trace_seed):
    return f"{trace}/{policy}/d{disks}/{discipline}@{scale!r}#{trace_seed}"


def workload_cells(workload, scale_mult, trace_seed):
    """``(trace, policy, disks, discipline, scale, seed)`` per cell."""
    return [
        (trace, policy, disks, discipline, scale * scale_mult, trace_seed)
        for trace, policy, disks, discipline, scale in WORKLOADS[workload]
    ]


def cell_list(args):
    """The cells of ``--cells`` (a JSON list of such tuples, for cells
    outside the named workloads) or else of ``--workload``."""
    if args.cells:
        with open(args.cells) as handle:
            return [tuple(cell) for cell in json.load(handle)]
    return workload_cells(args.workload, args.scale, args.trace_seed)


class Cells:
    """Cells given as ``(trace, policy, disks, discipline, scale, seed)``,
    built the way ``execute_cell`` builds them.  Each spec is
    ``(pin key, Cell, trace, policy kwargs)``."""

    def __init__(self, cells, timers=None):
        from repro.core import Simulator, make_policy
        from repro.core.nextref import NextRefIndex
        from repro.runner import Cell
        from repro.runner.execute import (
            result_digest,
            scaled_policy_kwargs,
            sim_config_for,
        )
        from repro.trace import build

        self._Simulator = Simulator
        self._make_policy = make_policy
        self._config = sim_config_for
        self._digest = result_digest
        self.specs = []
        for trace_name, policy, disks, discipline, scale, trace_seed in cells:
            start = time.perf_counter()
            trace = build(trace_name, scale=scale, seed=trace_seed)
            built = time.perf_counter()
            if timers is not None:
                timers["trace.build_s"] += built - start
                # The engine builds this index inside its constructor;
                # timing a standalone build isolates its share.
                NextRefIndex(trace.blocks)
                timers["nextref.build_s"] += time.perf_counter() - built
            cell = Cell(trace=trace_name, policy=policy, disks=disks,
                        discipline=discipline, scale=scale, seed=trace_seed)
            self.specs.append((
                pin_key(trace_name, policy, disks, discipline, scale,
                        trace_seed),
                cell, trace, scaled_policy_kwargs(policy, disks, scale),
            ))

    def simulator(self, index, profiler=None):
        _key, cell, trace, kwargs = self.specs[index]
        return self._Simulator(
            trace, self._make_policy(cell.policy, **kwargs), cell.disks,
            self._config(cell), profiler=profiler,
        )

    def digest(self, sim, result):
        timeline = sim.timeline.events if sim.config.record_timeline else None
        return self._digest(result, timeline)


class Checker:
    """Counts every cell run and every digest that differs from its pin."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, key, digest):
        self.attempted += 1
        if self.pins.get(key) != digest:
            self.failed += 1
            self.mismatches.append(key)


def run_round(cells, checker, sims=None, profilers=None, probe=False):
    """One pass over every cell; returns a list of
    ``(spec, sim, result, run seconds, probe seconds or None)``.
    ``sims`` reuses pre-built simulators; otherwise each cell gets a new
    one, with a fresh profiler when ``profilers`` collects them.  With
    ``probe``, the host-speed probe runs just before each cell."""
    results = []
    for index, spec in enumerate(cells.specs):
        profiler = None
        if profilers is not None:
            from repro.perf import PhaseProfiler

            profiler = PhaseProfiler()
            profilers.append(profiler)
        sim = sims[index] if sims is not None else cells.simulator(
            index, profiler
        )
        probe_seconds = probe_s() if probe else None
        try:
            start = time.perf_counter()
            result = sim.run()
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted as a failed operation
            checker.attempted += 1
            checker.failed += 1
            checker.mismatches.append(f"{spec[0]}: {exc!r}")
            continue
        checker.check(spec[0], cells.digest(sim, result))
        results.append((spec, sim, result, seconds, probe_seconds))
    return results


def load_pins(path):
    with open(path) as handle:
        return json.load(handle)


def mode_setup(args):
    """Build the cells and their simulators; returns them with the set-up
    seconds, counted from before ``import repro``.  Not scaled by the
    probe: import time is mostly file reads, unmarshalling and page
    faults, which the probe's slowdown did not track."""
    cells = Cells(cell_list(args))
    sims = [cells.simulator(i) for i in range(len(cells.specs))]
    return cells, sims, time.perf_counter() - T0


def mode_measure(args):
    cells, sims, setup_s = mode_setup(args)
    checker = Checker(load_pins(args.pins))
    run_round(cells, checker, sims=sims)  # warm-up, checked, untimed
    # Set-up plus one round; the probe builds its working set later.
    peak_rss_mb = vm_hwm_mb()
    runs = {}  # pin key -> [(references, run s, probe s)]
    window = time.perf_counter()
    while time.perf_counter() - window < args.seconds:
        for spec, _sim, result, seconds, probe_seconds in run_round(
            cells, checker, probe=True
        ):
            runs.setdefault(spec[0], []).append(
                (result.references, seconds, probe_seconds))
    refs = sum(cell_runs[0][0] for cell_runs in runs.values())
    # Each cell's time is its median run-to-probe ratio, converted back
    # to seconds on the reference host (probe.py).
    scaled_s = sum(
        median([run_s / probe_seconds for _, run_s, probe_seconds in cell_runs])
        * PROBE_REF_S
        for cell_runs in runs.values()
    )
    raw_s = sum(median([run_s for _, run_s, _ in cell_runs])
                for cell_runs in runs.values())
    # One operation is one cell's run: each cell's median, in the same
    # probe units, averaged over the cells.  (A median pooled over all
    # runs would jump between cells of similar length.)
    op_ms = 1000.0 * scaled_s / len(runs)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "refs_per_s": refs / scaled_s,
        "op_p50_ms": op_ms,
        "raw_refs_per_s": refs / raw_s,
        "timed_runs": sum(len(cell_runs) for cell_runs in runs.values()),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "mismatches": checker.mismatches[:10],
    }


def mode_traced(args):
    timers = {"trace.build_s": 0.0, "nextref.build_s": 0.0,
              "engine.init_s": 0.0}
    cells = Cells(cell_list(args), timers)
    start = time.perf_counter()
    sims = [cells.simulator(i) for i in range(len(cells.specs))]
    timers["engine.init_s"] = time.perf_counter() - start
    checker = Checker(load_pins(args.pins))
    run_round(cells, checker, sims=sims)  # warm-up
    plain_s = []
    traced_s = []
    events = []
    phases = {}
    calls = {}
    residuals = []
    sim_counts = None
    window = time.perf_counter()
    while time.perf_counter() - window < args.seconds or not traced_s:
        results = run_round(cells, checker)
        plain_s.append(sum(seconds for _, _, _, seconds, _ in results))
        events.append(sum(sim.events_dispatched for _, sim, _, _, _ in results))
        counts = {
            "sim.fetches": sum(r.fetches for _, _, r, _, _ in results),
            "sim.references": sum(r.references for _, _, r, _, _ in results),
            "sim.stall_ms": sum(r.stall_ms for _, _, r, _, _ in results),
            "sim.elapsed_ms": sum(r.elapsed_ms for _, _, r, _, _ in results),
        }
        if sim_counts is not None and counts != sim_counts:
            checker.failed += 1
            checker.mismatches.append("simulated counts changed between rounds")
        sim_counts = counts
        profilers = []
        round_s = sum(seconds for _, _, _, seconds, _ in run_round(
            cells, checker, profilers=profilers))
        traced_s.append(round_s)
        attributed = 0.0
        for profiler in profilers:
            for phase, total_ns in profiler.totals_ns.items():
                phases[phase] = phases.get(phase, 0.0) + total_ns / 1e9
                calls[phase] = calls.get(phase, 0) + profiler.counts[phase]
                attributed += total_ns / 1e9
        # Self-audit: the layers partition the traced time, so what they
        # leave over must never be negative.
        residuals.append(round_s - attributed)
    rounds = len(traced_s)
    layers = {phase: total / rounds for phase, total in phases.items()}
    return {
        "timers": timers,
        "layers": layers,
        "calls": {phase: total // rounds for phase, total in calls.items()},
        "residual_s": mean(residuals),
        "traced_s": mean(traced_s),
        "overhead": mean(traced_s) / mean(plain_s),
        "events": events[0],
        "us_per_event": 1e6 * mean(plain_s) / events[0],
        "sim": sim_counts,
        "rounds": rounds,
        "audit_ok": min(residuals) >= 0.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "mismatches": checker.mismatches[:10],
    }


def mode_pin(args):
    from repro.runner import execute_cell
    from repro.trace import WORKLOADS as RUNNER_TRACES

    pins = {}
    for workload in sorted(WORKLOADS):
        for trace_seed in range(PIN_SEEDS):
            cells = Cells(workload_cells(workload, args.scale, trace_seed))
            for (key, cell, _, _), sim, result, _, _ in run_round(
                cells, Checker({})
            ):
                digest = cells.digest(sim, result)
                # The runner (repro-sim run, the service) knows only the
                # paper's traces; where it can run a cell, it must agree.
                if (cell.trace in RUNNER_TRACES
                        and execute_cell(cell).digest != digest):
                    raise SystemExit(f"{key}: runner digest differs")
                pins[key] = digest
    with open(args.pins, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {"pinned": len(pins)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "traced",
                                         "pin"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--cells", help="JSON file of cells to run instead "
                        "of the workload's (svc-mixed profiles its cold "
                        "cells this way)")
    parser.add_argument("--trace-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every cell's trace scale")
    parser.add_argument("--pins", default=str(PINS))
    args = parser.parse_args(argv)
    require_checkout()
    if args.mode == "setup":
        payload = {"setup_s": mode_setup(args)[2]}
    elif args.mode == "measure":
        payload = mode_measure(args)
    elif args.mode == "traced":
        payload = mode_traced(args)
    else:
        payload = mode_pin(args)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
