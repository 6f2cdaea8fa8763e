"""The phase profiler: self-time accounting and behavioural transparency."""

import dataclasses
import sys

import pytest

from repro.cli import main
from repro.core import SimConfig, Simulator, make_policy
from repro.obs import Observer
from repro.perf import PHASES, PhaseProfiler
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for

from tests.test_golden_results import (
    CELLS,
    EXPECTED,
    SCALE,
    VARIANT_CELLS,
    VARIANT_EXPECTED,
    cell_id,
    run_cell,
    run_variant_cell,
    variant_cell_id,
)
from tests.test_obs import PROFILED_POLICY


class FakeClock:
    """Deterministic nanosecond clock advanced by the test."""

    def __init__(self):
        self.now = 0

    def advance(self, ns: int) -> None:
        self.now += ns

    def __call__(self) -> int:
        return self.now


class TestPhaseProfiler:
    def test_flat_phase_accumulates(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        profiler.start("disk")
        clock.advance(5_000_000)
        profiler.stop()
        profiler.start("disk")
        clock.advance(3_000_000)
        profiler.stop()
        assert profiler.ms("disk") == pytest.approx(8.0)
        assert profiler.counts["disk"] == 2

    def test_nested_phase_charges_self_time_only(self):
        # dispatch runs 10ms total, but 6ms of it is inside a nested
        # policy bracket: self times must partition, not double count.
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        profiler.start("dispatch")
        clock.advance(1_000_000)
        profiler.start("policy")
        clock.advance(6_000_000)
        profiler.stop()
        clock.advance(3_000_000)
        profiler.stop()
        assert profiler.ms("dispatch") == pytest.approx(4.0)
        assert profiler.ms("policy") == pytest.approx(6.0)
        assert profiler.total_ms == pytest.approx(10.0)

    def test_deep_nesting_resumes_each_parent(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        profiler.start("dispatch")
        clock.advance(1_000_000)
        profiler.start("cache")
        clock.advance(2_000_000)
        profiler.start("policy")
        clock.advance(4_000_000)
        profiler.stop()
        clock.advance(8_000_000)
        profiler.stop()
        clock.advance(16_000_000)
        profiler.stop()
        assert profiler.ms("dispatch") == pytest.approx(17.0)
        assert profiler.ms("cache") == pytest.approx(10.0)
        assert profiler.ms("policy") == pytest.approx(4.0)

    def test_zero_duration_phases_report_cleanly(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.start("policy")
        profiler.stop()
        summary = profiler.to_dict()
        assert summary["total_ms"] == 0.0
        assert summary["phases"]["policy"]["share"] == 0.0
        assert "policy" in profiler.report()

    def test_to_dict_shares_sum_to_one(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for phase, ns in (("policy", 2), ("disk", 3), ("dispatch", 5)):
            profiler.start(phase)
            clock.advance(ns * 1_000_000)
            profiler.stop()
        summary = profiler.to_dict()
        shares = [entry["share"] for entry in summary["phases"].values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-3)
        # Phases are reported hottest-first (self time descending).
        assert list(summary["phases"]) == ["dispatch", "disk", "policy"]

    def test_reset_clears_everything(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        profiler.start("disk")
        clock.advance(1_000_000)
        profiler.stop()
        profiler.reset()
        assert profiler.total_ms == 0.0
        assert profiler.counts == {}

    def test_phase_vocabulary_is_stable(self):
        assert PHASES == ("policy", "disk", "cache", "dispatch")


def _run(trace_name, policy, disks, profiler=None):
    trace = build_workload(trace_name, scale=0.2)
    config = SimConfig(cache_blocks=cache_blocks_for(trace_name, 0.2))
    sim = Simulator(
        trace, make_policy(policy), disks, config, profiler=profiler
    )
    return sim.run()


class TestProfiledRuns:
    @pytest.mark.parametrize("policy", ["demand", "aggressive", "forestall"])
    def test_profiled_run_is_bit_identical(self, policy):
        plain = _run("ld", policy, 2)
        profiled = _run("ld", policy, 2, profiler=PhaseProfiler())
        assert dataclasses.asdict(plain) == dataclasses.asdict(profiled)

    def test_profiler_sees_all_engine_phases(self):
        profiler = PhaseProfiler()
        _run("ld", "forestall", 2, profiler=profiler)
        for phase in PHASES:
            assert profiler.ms(phase) > 0.0, phase
            assert profiler.counts[phase] > 0


class TestGoldenProfiled:
    @pytest.mark.parametrize("cell", CELLS, ids=cell_id)
    def test_digest_unchanged_with_profiler(self, cell):
        assert run_cell(cell, profiler=PhaseProfiler()) == EXPECTED[cell_id(cell)]

    @pytest.mark.parametrize("cell", CELLS, ids=cell_id)
    def test_digest_unchanged_with_profiler_and_observer(self, cell):
        digest = run_cell(cell, observer=Observer(), profiler=PhaseProfiler())
        assert digest == EXPECTED[cell_id(cell)]

    @pytest.mark.parametrize("cell", VARIANT_CELLS, ids=variant_cell_id)
    def test_variant_digest_unchanged_with_profiler(self, cell):
        digest = run_variant_cell(cell, profiler=PhaseProfiler())
        assert digest == VARIANT_EXPECTED[variant_cell_id(cell)]

    @pytest.mark.parametrize("cell", VARIANT_CELLS, ids=variant_cell_id)
    def test_variant_digest_unchanged_with_profiler_and_observer(self, cell):
        digest = run_variant_cell(
            cell, observer=Observer(), profiler=PhaseProfiler()
        )
        assert digest == VARIANT_EXPECTED[variant_cell_id(cell)]


def _golden_sim(trace_name, policy, disks, profiler):
    trace = build_workload(trace_name, scale=SCALE)
    config = SimConfig(cache_blocks=cache_blocks_for(trace_name, SCALE))
    return Simulator(trace, make_policy(policy), disks, config,
                     profiler=profiler)


def _count_engine_consultations(policy):
    """Shadow the (already profiled) policy hooks with counters that count
    only calls made from engine code, not the policy's calls to itself."""
    consultations = [0]
    for name in PROFILED_POLICY:
        def counted(*args, _inner=getattr(policy, name), **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "repro.core.engine":
                consultations[0] += 1
            return _inner(*args, **kwargs)

        setattr(policy, name, counted)
    return consultations


class TestProfilerCounts:
    def test_dispatch_count_is_events_dispatched(self):
        profiler = PhaseProfiler()
        sim = _golden_sim("ld", "forestall", 2, profiler)
        sim.run()
        assert profiler.counts["dispatch"] == sim.events_dispatched

    @pytest.mark.parametrize("trace_name,disks", [("ld", 2), ("cscope1", 4)])
    def test_policy_count_is_engine_consultations(self, trace_name, disks):
        # The base on_miss calls self.choose_victim: that nested call is
        # already inside the policy phase and must not count again.
        profiler = PhaseProfiler()
        sim = _golden_sim(trace_name, "demand", disks, profiler)
        consultations = _count_engine_consultations(sim.policy)
        sim.run()
        assert consultations[0] > 0
        assert profiler.counts["policy"] == consultations[0]


class TestProfileFlag:
    def test_run_profile_prints_breakdown(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "forestall", "-d", "2",
            "--scale", "0.1", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out
        for phase in PHASES:
            assert phase in out

    def test_run_without_profile_stays_quiet(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1", "--scale", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" not in out
