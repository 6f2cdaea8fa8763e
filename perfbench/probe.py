"""A fixed pure-Python probe that measures how fast the host is right now.

On the shared virtual machine this benchmark was tuned on, one simulator
cell took anywhere from 108 to 220 ms within a minute, with no steal
time recorded: other tenants slow the vCPUs down for seconds to minutes
at a time.  The probe does a fixed amount of interpreter work of the
simulator's kind (scattered reads over a few tens of MB of lists and
dicts, small-object method calls, heap pushes and pops), and its
duration tracks those swings.  Timing it next to the measured work
expresses host time in probe units.  Over four minutes cut into
20-second windows, throughput from each cell's median run spread 29%
(sim-engine) and 20% (sim-policy) across windows; from each cell's
median run-to-probe ratio, 3.9% and 4.1%.  A cache-resident probe of
the same operations tracked worse (5.5% and 7.3%): the swings hit
memory-bound work less than tight loops, so the probe needs a working
set like the simulator's.

The probe never changes, so a commit that speeds up the simulator moves
the ratio and a noisy neighbour does not.  ``PROBE_REF_S`` converts probe
units back to seconds: it is the probe's time on the idle host, so the
figures read as seconds on that host when it is quiet.
"""

import heapq
import time

#: The probe's duration on the idle tuning host (2-vCPU KVM guest, Xeon
#: at 2.1 GHz, CPython 3.11).
PROBE_REF_S = 0.0075

#: The probe's working set, built on first use so that importing this
#: module costs nothing inside a timed set-up.
_DATA = None


class _Record:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def score(self, x):
        return self.a * x + self.b


def _working_set():
    global _DATA
    if _DATA is None:
        _DATA = (list(range(200_000)),
                 {i: i * 3 for i in range(0, 400_000, 2)})
    return _DATA


def probe_work(values, table, n=6000):
    acc = 0
    index = 12345
    heap = []
    for i in range(n):
        index = (index * 1103515245 + 12345) % 199_999
        value = values[index]
        record = _Record(value, table.get(value * 2 % 400_000, 0))
        acc += record.score(i & 7)
        heapq.heappush(heap, (record.b, i))
        if len(heap) > 128:
            heapq.heappop(heap)
    return acc


def probe_s():
    """Seconds one probe takes now."""
    values, table = _working_set()
    start = time.perf_counter()
    probe_work(values, table)
    return time.perf_counter() - start
