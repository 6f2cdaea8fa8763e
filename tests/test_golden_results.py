"""Golden results: optimized runs must be bit-identical to pre-PR outputs.

The hot-path optimization work (deque FCFS queue, cylinder-keyed SSTF,
timeline sort caching, missing-scan memoization, profiler hooks) promises
to change *performance only*.  This test pins SHA-256 digests of the full
``SimulationResult`` serialization — every float at full precision, plus
the recorded timeline where enabled — for all five hinted policies on two
small workloads across all three disk scheduling disciplines, and of
six two-stream shared runs (``MULTI_CELLS``) under both allocators, and of
five cells off the paper's baseline setup (``VARIANT_CELLS``: the zoned and
IBM 0661 drives, no drive readahead, write-behind, fault injection).  Any change
to a digest means an optimization altered simulated behaviour and must be
treated as a bug (or, for an intentional model change, regenerated with an
explanation in the PR).

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_results.py --regen
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import SimConfig, Simulator, make_policy
from repro.core.multiprocess import (
    CostBenefitAllocator,
    MultiProcessSimulator,
    StaticAllocator,
)
from repro.faults import FaultSchedule, SlowWindow
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for

#: Trace scale for the golden cells — big enough to exercise eviction
#: pressure, stalls, and scheduler reordering; small enough to stay fast.
SCALE = 0.3

FIVE_POLICIES = (
    "demand", "fixed-horizon", "aggressive", "reverse-aggressive", "forestall"
)

#: (trace, policy, disks, discipline, record_timeline)
CELLS = (
    [("ld", policy, 2, "cscan", False) for policy in FIVE_POLICIES]
    + [("cscope1", policy, 4, "cscan", False) for policy in FIVE_POLICIES]
    + [
        ("ld", "forestall", 3, "fcfs", False),
        ("ld", "aggressive", 2, "sstf", False),
        ("cscope1", "demand", 2, "fcfs", False),
        ("ld", "forestall", 2, "cscan", True),
    ]
)


def cell_id(cell) -> str:
    trace, policy, disks, discipline, timeline = cell
    suffix = "+timeline" if timeline else ""
    return f"{trace}/{policy}/d{disks}/{discipline}{suffix}"


def run_cell(cell, observer=None, profiler=None) -> str:
    """Run one cell and digest its complete serialized outcome.

    ``observer`` and ``profiler`` let tests/test_obs.py and
    tests/test_perf.py assert the read-only guarantee: digests must be
    identical with a ``repro.obs.Observer`` and/or a
    ``repro.perf.PhaseProfiler`` attached.
    """
    trace_name, policy, disks, discipline, record_timeline = cell
    trace = build_workload(trace_name, scale=SCALE)
    config = SimConfig(
        cache_blocks=cache_blocks_for(trace_name, SCALE),
        discipline=discipline,
        record_timeline=record_timeline,
    )
    return _digest(Simulator(trace, make_policy(policy), disks, config,
                             observer=observer, profiler=profiler))


def _digest(sim) -> str:
    result = sim.run()
    payload = dataclasses.asdict(result)
    if sim.timeline is not None:
        payload["timeline"] = sim.timeline.events
    # json renders floats via repr: exact, so any ULP drift changes the digest.
    serialized = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


#: Digests captured before this PR's optimizations (seed behaviour).
EXPECTED = {
    "ld/demand/d2/cscan": "07f52fd9602600bcacdb5ce0b918ea4477194172ec4fbc4d90fa1662480f3f85",
    "ld/fixed-horizon/d2/cscan": "c99fa88d0d92f43b766444edf327d50e2c9f55e5e06996322de74c6960592c5c",
    "ld/aggressive/d2/cscan": "43ce72110a0df603f689dceb732a9976b3579ab4610b5abb91622b716566c4c1",
    "ld/reverse-aggressive/d2/cscan": "5f9e3449de055e0ab418a993ec587176b4e6163af193e5d961336cada7ca8272",
    "ld/forestall/d2/cscan": "06ecf3c71a743b8888394248fa26e68eabb664b827022ed4a8bbefec83cde78f",
    "cscope1/demand/d4/cscan": "67939f7854bc131b8b8e96eb9e3b5262f651d813963fd1d1b540d40177821c36",
    "cscope1/fixed-horizon/d4/cscan": "64238cc3e4ca7704d8247a3bd5a44144bca01d20e9c93ab043dedf9b6601664c",
    "cscope1/aggressive/d4/cscan": "546b71b8fadc7f4aebe5d84d929d717619a676419d6e840eca6712f1aac1c654",
    "cscope1/reverse-aggressive/d4/cscan": "14ffc70166f270b23bee4bae7b53feaeafb029765259b374a3486ab3c44bde56",
    "cscope1/forestall/d4/cscan": "5df8a6db9d6f6132218f0579903d174945f37a8a00bf15bb452024433039febe",
    "ld/forestall/d3/fcfs": "ed8ab323f42851611806b943661704717fa852dd8f2873d997b11895cf6808d1",
    "ld/aggressive/d2/sstf": "6d41b8282bb9c1edbe7daed98dd2bcf783ed5b0d225020853ab1ebf6303e95f6",
    "cscope1/demand/d2/fcfs": "694bf6fb04877357170d1d2a12c46413d379283634a5cf716dbaad4fe466e683",
    "ld/forestall/d2/cscan+timeline": "076b736df92c72f5d66d5e0d71b1a297f290d906cff70665580879e967631b87",
}


#: A write-behind cell writes every fifth reference's block.
WRITE_EVERY = 5

#: Seeded transient read errors on every disk, plus a window in which
#: disk 1 serves three times slower.
VARIANT_FAULTS = FaultSchedule(
    seed=7,
    read_error_rate=0.03,
    slow_windows=(SlowWindow(3.0, disk=1, start_ms=1000.0, end_ms=2500.0),),
)

#: Each variant's SimConfig changes ("writes" changes the trace instead).
VARIANTS = {
    "hp97560-zoned": {"disk_model": "hp97560-zoned"},
    "ibm0661": {"disk_model": "ibm0661"},
    "no-readahead": {"readahead": False},
    "writes": {},
    "faults": {"faults": VARIANT_FAULTS},
}

#: Cells off the paper's baseline setup, which the 14 cells above never
#: leave: (trace, policy, disks, discipline, variant).
VARIANT_CELLS = (
    ("ld", "aggressive", 2, "cscan", "hp97560-zoned"),
    ("cscope1", "forestall", 2, "sstf", "ibm0661"),
    ("ld", "reverse-aggressive", 2, "fcfs", "no-readahead"),
    ("ld", "aggressive", 2, "cscan", "writes"),
    ("ld", "forestall", 2, "cscan", "faults"),
)


def variant_cell_id(cell) -> str:
    trace, policy, disks, discipline, variant = cell
    return f"{trace}/{policy}/d{disks}/{discipline}/{variant}"


def run_variant_cell(cell, observer=None, profiler=None) -> str:
    """Run one variant cell and digest it the way :func:`run_cell` does."""
    trace_name, policy, disks, discipline, variant = cell
    trace = build_workload(trace_name, scale=SCALE)
    if variant == "writes":
        trace = dataclasses.replace(trace, writes=[
            i % WRITE_EVERY == WRITE_EVERY - 1 for i in range(len(trace.blocks))
        ])
    config = SimConfig(
        cache_blocks=cache_blocks_for(trace_name, SCALE),
        discipline=discipline,
        **VARIANTS[variant],
    )
    return _digest(Simulator(trace, make_policy(policy), disks, config,
                             observer=observer, profiler=profiler))


#: Variant digests pinned before the drive's per-request geometry work
#: was hoisted to construction time.
VARIANT_EXPECTED = {
    "ld/aggressive/d2/cscan/hp97560-zoned": "21dfca726157c1476c7b5f8c61aa2d7d22f3ffaf20c7c164e390255bbcbfe904",
    "cscope1/forestall/d2/sstf/ibm0661": "a86ab958ed643339021215f3dfe05bc7b2a0c604ae8957b72f464c99393daf15",
    "ld/reverse-aggressive/d2/fcfs/no-readahead": "a74e9b3bc542794fe21911d5f76a3cf90559612259a7256e60d918d9dc17b204",
    "ld/aggressive/d2/cscan/writes": "278444e7a2a583900a758a4bd2a36dfe964cbd4e98b3ade5e54e1e7cf6d9ef4f",
    "ld/forestall/d2/cscan/faults": "b00505ff9bc6a655e827351a747f3be39c7a7630c1d57e03a679a9bdf9dd2756",
}


#: Shared runs: two streams at ``SCALE`` against one array, with the cache
#: sized for both traces.  (stream A, stream B, disks, discipline,
#: allocator, disk model); a stream is (trace, policy).
MULTI_CELLS = (
    (("ld", "forestall"), ("cscope1", "aggressive"), 2, "cscan",
     "static", "hp97560"),
    (("ld", "forestall"), ("cscope1", "aggressive"), 2, "cscan",
     "static-3:1", "hp97560"),
    (("ld", "forestall"), ("cscope1", "aggressive"), 2, "cscan",
     "cost-benefit", "hp97560"),
    (("ld", "fixed-horizon"), ("ld", "demand"), 1, "fcfs",
     "static", "hp97560"),
    (("cscope1", "reverse-aggressive"), ("ld", "fixed-horizon"), 4, "sstf",
     "cost-benefit", "hp97560"),
    (("ld", "aggressive"), ("cscope1", "forestall"), 2, "cscan",
     "static", "simple"),
)

ALLOCATORS = {
    "static": StaticAllocator,
    "static-3:1": lambda: StaticAllocator([3, 1]),
    "cost-benefit": CostBenefitAllocator,
}


def multi_cell_id(cell) -> str:
    a, b, disks, discipline, allocator, disk_model = cell
    suffix = "" if disk_model == "hp97560" else f"/{disk_model}"
    return (f"{a[0]}/{a[1]}+{b[0]}/{b[1]}/d{disks}/{discipline}/"
            f"{allocator}{suffix}")


def run_multi_cell(cell) -> str:
    """Run one shared cell and digest every stream's serialized result."""
    streams, (disks, discipline, allocator, disk_model) = cell[:2], cell[2:]
    config = SimConfig(
        cache_blocks=sum(cache_blocks_for(t, SCALE) for t, _ in streams),
        discipline=discipline,
        disk_model=disk_model,
    )
    sim = MultiProcessSimulator(
        [(build_workload(t, scale=SCALE), make_policy(p)) for t, p in streams],
        disks, config, ALLOCATORS[allocator](),
    )
    payload = [dataclasses.asdict(r) for r in sim.run()]
    serialized = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


#: Shared-run digests pinned before the shared engine was folded into
#: ``Simulator``'s event loop.
MULTI_EXPECTED = {
    "ld/forestall+cscope1/aggressive/d2/cscan/static": "c473e010173e6240d08c36f193263aefdf39b204bec3c4245c39ab47dbc896cf",
    "ld/forestall+cscope1/aggressive/d2/cscan/static-3:1": "e7153e977b539d0cc7347288f8754ca5591a475e5e6e1fb0b5f03528b426c956",
    "ld/forestall+cscope1/aggressive/d2/cscan/cost-benefit": "82b297a8bee9090d3ca63b0a96feb7641d8022112f2788bad35238372920cff3",
    "ld/fixed-horizon+ld/demand/d1/fcfs/static": "c90f370fba641d1fab75fb8f12eebed10d9b36325db21bc99fff6879cfbc0de3",
    "cscope1/reverse-aggressive+ld/fixed-horizon/d4/sstf/cost-benefit": "0cd8ac945a624a5bf18e22fc78783b5e15b2096a878e96bdcd846c7eaee3e10c",
    "ld/aggressive+cscope1/forestall/d2/cscan/static/simple": "be63c9f3645b4bcac5dab3f1a54b5de95d796a09a11469f6919a2871a6d55ef5",
}


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_results_bit_identical_to_seed(cell):
    assert run_cell(cell) == EXPECTED[cell_id(cell)], (
        f"{cell_id(cell)}: SimulationResult serialization changed — an "
        "optimization altered simulated behaviour (see docs/PERFORMANCE.md)"
    )


@pytest.mark.parametrize("cell", VARIANT_CELLS, ids=variant_cell_id)
def test_variant_results_bit_identical(cell):
    assert run_variant_cell(cell) == VARIANT_EXPECTED[variant_cell_id(cell)], (
        f"{variant_cell_id(cell)}: SimulationResult serialization changed"
    )


def test_every_cell_has_a_pinned_digest():
    assert {cell_id(c) for c in CELLS} == set(EXPECTED)
    assert {multi_cell_id(c) for c in MULTI_CELLS} == set(MULTI_EXPECTED)
    assert {variant_cell_id(c) for c in VARIANT_CELLS} == set(VARIANT_EXPECTED)


@pytest.mark.parametrize("cell", MULTI_CELLS, ids=multi_cell_id)
def test_shared_results_bit_identical(cell):
    assert run_multi_cell(cell) == MULTI_EXPECTED[multi_cell_id(cell)], (
        f"{multi_cell_id(cell)}: shared-run serialization changed"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        print("EXPECTED = {")
        for cell in CELLS:
            print(f'    "{cell_id(cell)}": "{run_cell(cell)}",')
        print("}")
        print("VARIANT_EXPECTED = {")
        for cell in VARIANT_CELLS:
            print(f'    "{variant_cell_id(cell)}": "{run_variant_cell(cell)}",')
        print("}")
        print("MULTI_EXPECTED = {")
        for cell in MULTI_CELLS:
            print(f'    "{multi_cell_id(cell)}": "{run_multi_cell(cell)}",')
        print("}")
    else:
        sys.exit("usage: python tests/test_golden_results.py --regen")
