"""Multi-process simulation: shared disks, partitioned cache, allocators."""

import pytest

from repro.core import SimConfig, Simulator, make_policy
from repro.core.multiprocess import (
    CostBenefitAllocator,
    MultiProcessSimulator,
    StaticAllocator,
    _SharedSlice,
)
from repro.core.timeline import FETCH_DONE, FETCH_ISSUED
from repro.faults import DiskFailure, FaultSchedule
from repro.trace import Trace, build, cache_blocks_for
from tests.conftest import make_trace


def config(cache_blocks=32, **kw):
    return SimConfig(
        cache_blocks=cache_blocks,
        disk_model="simple",
        simple_access_ms=10.0,
        simple_sequential_ms=None,
        **kw,
    )


def two_process_sim(policy_a="fixed-horizon", policy_b="fixed-horizon",
                    allocator=None, disks=2, cache_blocks=32, n=60):
    a = make_trace(list(range(12)) * (n // 12), compute_ms=2.0, name="A")
    b = make_trace(list(range(12)) * (n // 12), compute_ms=2.0, name="B")
    return MultiProcessSimulator(
        [
            (a, make_policy(policy_a, horizon=4)
             if policy_a == "fixed-horizon" else make_policy(policy_a)),
            (b, make_policy(policy_b, horizon=4)
             if policy_b == "fixed-horizon" else make_policy(policy_b)),
        ],
        num_disks=disks,
        config=config(cache_blocks),
        allocator=allocator,
    )


class TestSharedSlice:
    def test_shrink_respects_floor(self):
        s = _SharedSlice(16)
        assert s.shrink(10, floor=8) == 8
        assert s.capacity == 8
        assert s.shrink(10, floor=8) == 0

    def test_grow(self):
        s = _SharedSlice(8)
        s.grow(4)
        assert s.capacity == 12

    def test_overflow_tolerated_after_shrink(self):
        s = _SharedSlice(3)
        for b in range(3):
            s.begin_fetch(b, None)
            s.complete_fetch(b)
        s.shrink(2, floor=1)
        assert s.capacity == 1
        assert s.free_buffers == 0  # clamped, not negative
        assert len(s.resident) == 3  # drains via future evictions


class TestAllocators:
    def test_static_shares_proportional(self):
        shares = StaticAllocator([3, 1]).initial_shares(80, 2)
        assert sum(shares) == 80
        assert shares[0] == 60

    def test_static_weight_count_checked(self):
        with pytest.raises(ValueError):
            StaticAllocator([1]).initial_shares(10, 2)

    def test_cost_benefit_moves_toward_staller(self):
        class FakeProcess:
            def __init__(self, pid, stall, cache):
                self.pid = pid
                self.stall_total = stall
                self.cache = cache
                self.done = False

        allocator = CostBenefitAllocator(min_share=4, step=2)
        rich = FakeProcess(0, stall=0.0, cache=_SharedSlice(16))
        poor = FakeProcess(1, stall=100.0, cache=_SharedSlice(16))

        class FakeSim:
            processes = [rich, poor]

        allocator.rebalance(FakeSim())
        assert poor.cache.capacity == 18
        assert rich.cache.capacity == 14

    def test_cost_benefit_noop_for_single_live_process(self):
        allocator = CostBenefitAllocator()

        class FakeProcess:
            pid, stall_total, done = 0, 5.0, False
            cache = _SharedSlice(8)

        class FakeSim:
            processes = [FakeProcess()]

        allocator.rebalance(FakeSim())  # must not raise
        assert FakeProcess.cache.capacity == 8


class TestEndToEnd:
    def test_both_processes_complete(self):
        results = two_process_sim().run()
        assert len(results.results) == 2
        for r in results:
            assert r.references == 60

    def test_per_process_accounting_identity(self):
        results = two_process_sim().run()
        for r in results:
            total = r.compute_ms + r.driver_ms + r.stall_ms
            assert r.elapsed_ms == pytest.approx(total, abs=1e-6)

    def test_namespaces_do_not_collide(self):
        # Identical traces: each process must fetch its own copy.
        results = two_process_sim().run()
        for r in results:
            assert r.fetches >= 12  # every distinct block per process

    def test_sharing_slows_both_versus_alone(self):
        from repro.core import Simulator

        shared = two_process_sim(disks=1).run()
        solo_trace = make_trace(list(range(12)) * 5, compute_ms=2.0)
        solo = Simulator(
            solo_trace, make_policy("fixed-horizon", horizon=4), 1,
            config(cache_blocks=16),
        ).run()
        for r in shared:
            assert r.elapsed_ms >= solo.elapsed_ms * 0.99

    def test_makespan_is_max_elapsed(self):
        results = two_process_sim().run()
        assert results.makespan_ms == max(r.elapsed_ms for r in results)

    def test_requires_processes(self):
        with pytest.raises(ValueError):
            MultiProcessSimulator([], 1, config())

    def test_aggressive_neighbor_places_more_sustained_load(self):
        """The measurable core of the paper's section-6 conjecture: an
        aggressively prefetching co-runner issues more fetches and keeps
        the shared disk busier than a fixed-horizon co-runner.  (Who ends
        up *waiting* depends on scheduler dynamics — a just-in-time
        sequential stream can monopolize a CSCAN sweep — so the load, not
        a specific victim's elapsed time, is the robust observable.)"""
        def run_with_hog(neighbor_policy):
            victim = make_trace(list(range(12)) * 5, compute_ms=2.0,
                                name="victim")
            hog = make_trace(list(range(100, 148)) * 8, compute_ms=0.5,
                             name="hog")
            kw = {"horizon": 4} if neighbor_policy == "fixed-horizon" else {}
            sim = MultiProcessSimulator(
                [
                    (victim, make_policy("fixed-horizon", horizon=4)),
                    (hog, make_policy(neighbor_policy, **kw)),
                ],
                num_disks=1,
                config=config(cache_blocks=40),
            )
            return sim.run()

        gentle = run_with_hog("fixed-horizon")
        rough = run_with_hog("aggressive")
        assert rough[1].fetches > gentle[1].fetches
        assert rough[1].driver_ms > gentle[1].driver_ms


class TestDifferentPolicies:
    @pytest.mark.parametrize("policy", ["demand", "aggressive", "forestall"])
    def test_mixed_policy_pairs_run(self, policy):
        results = two_process_sim(policy_b=policy).run()
        assert all(r.references == 60 for r in results)

    def test_reverse_aggressive_in_multiprocess(self):
        a = make_trace(list(range(12)) * 5, compute_ms=2.0, name="A")
        b = make_trace(list(range(12)) * 5, compute_ms=2.0, name="B")
        sim = MultiProcessSimulator(
            [
                (a, make_policy("reverse-aggressive", fetch_time_estimate=4)),
                (b, make_policy("fixed-horizon", horizon=4)),
            ],
            num_disks=2,
            config=config(cache_blocks=32),
        )
        results = sim.run()
        assert all(r.references == 60 for r in results)

    def test_cost_benefit_not_worse_than_static_on_asymmetric_load(self):
        def makespan(allocator):
            light = make_trace([0, 1, 2, 3] * 15, compute_ms=5.0, name="lt")
            heavy = make_trace(list(range(10, 58)) * 2, compute_ms=0.5,
                               name="hv")
            sim = MultiProcessSimulator(
                [
                    (light, make_policy("fixed-horizon", horizon=4)),
                    (heavy, make_policy("forestall", horizon=4)),
                ],
                num_disks=2,
                config=config(cache_blocks=40),
                allocator=allocator,
            )
            return sim.run().makespan_ms

        static = makespan(StaticAllocator())
        dynamic = makespan(CostBenefitAllocator(period_ms=40.0, min_share=6,
                                                step=2))
        assert dynamic <= static * 1.05


LD_SCALE = 0.05


def ld_pair(num_disks=2, trace_b=None, **config_changes):
    """Two ld/fixed-horizon streams on the HP 97560, cache sized for both."""
    trace = build("ld", scale=LD_SCALE)
    config = SimConfig(
        cache_blocks=2 * cache_blocks_for("ld", LD_SCALE), **config_changes
    )
    return MultiProcessSimulator(
        [
            (trace, make_policy("fixed-horizon")),
            (trace_b or trace, make_policy("fixed-horizon")),
        ],
        num_disks,
        config,
    )


class TestStreamsRunEngineFeatures:
    """Every stream is a Simulator: no SimConfig field or trace attribute
    is silently ignored in a shared run."""

    def test_faults_reach_shared_runs(self):
        sim = ld_pair(faults=FaultSchedule(seed=1, read_error_rate=0.05))
        results = sim.run()
        assert sim.array.faults_injected > 0
        assert any(r.retry_ms > 0 for r in results)
        for r in results:
            r.check_accounting(tolerance_ms=1e-6 * r.elapsed_ms)

    @pytest.mark.parametrize(
        "disk_model", ["hp97560", "hp97560-zoned", "ibm0661", "simple"]
    )
    def test_disk_model_and_cpu_speedup(self, disk_model):
        trace = build("ld", scale=LD_SCALE)
        solo = Simulator(trace, make_policy("demand"), 2,
                         SimConfig(disk_model=disk_model))
        shared = ld_pair(disk_model=disk_model)
        assert shared.array.geometry == solo.array.geometry
        for drive, solo_drive in zip(shared.array.drives, solo.array.drives):
            assert type(drive) is type(solo_drive)
            assert getattr(drive, "geometry", None) == getattr(
                solo_drive, "geometry", None
            )
        base = shared.run()
        fast = ld_pair(disk_model=disk_model, cpu_speedup=4.0).run()
        for slow_stream, fast_stream in zip(base, fast):
            assert fast_stream.compute_ms == pytest.approx(
                slow_stream.compute_ms / 4
            )

    def test_mirrored_routes_around_a_dead_spindle(self):
        # Spindle 1 dies mid-run; every stream's reads then go to its twin.
        faults = FaultSchedule(
            disk_failures=(DiskFailure(disk=1, at_ms=50.0),)
        )
        sim = ld_pair(mirrored=True, faults=faults)
        results = sim.run()
        for stream in sim.processes:
            assert set(stream._disk.values()) == {0}  # one mirror pair
        assert not any(r.degraded for r in results)
        plain = ld_pair(faults=faults).run()
        assert any(r.degraded for r in plain)

    def test_mirrored_needs_even_disks(self):
        with pytest.raises(ValueError, match="mirroring"):
            ld_pair(num_disks=3, mirrored=True)

    def test_scatter_placement_per_stream(self):
        clustered = ld_pair()
        scattered = ld_pair(placement="scatter")
        scattered.run()
        for before, after in zip(clustered.processes, scattered.processes):
            assert before._lbn.keys() == after._lbn.keys()
            assert before._lbn != after._lbn
        with pytest.raises(ValueError, match="placement"):
            ld_pair(placement="diagonal")

    def test_record_timeline_per_stream_on_the_shared_clock(self):
        sim = ld_pair(record_timeline=True)
        sim.run()
        end = sim.processes[0].now
        for pid, stream in enumerate(sim.processes):
            assert stream.now == end
            events = stream.timeline.events
            issued = {}
            for time, kind, block, _disk in events:
                assert block >> 32 == pid
                assert 0.0 <= time <= end
                if kind == FETCH_ISSUED:
                    issued[block] = time
                elif kind == FETCH_DONE:
                    assert time > issued[block]
            assert max(issued.values()) > 0.0

    def test_trace_writes_per_stream(self):
        reads = build("ld", scale=LD_SCALE)
        writes = Trace(
            name="ld-writes",
            blocks=reads.blocks,
            compute_ms=reads.compute_ms,
            files=reads.files,
            writes=[i % 3 == 0 for i in range(len(reads.blocks))],
        )
        results = ld_pair(trace_b=writes).run()
        assert "writes" not in results[0].extras
        assert results[1].extras["writes"] > 0
        assert results[1].extras["flushes"] > 0
        for r in results:
            r.check_accounting(tolerance_ms=1e-6 * r.elapsed_ms)
