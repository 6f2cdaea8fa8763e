"""Detailed single-disk service-time model.

The drive services one request at a time.  A request's service time is the
sum of controller overhead, seek, rotational latency, and media transfer —
unless the block is resident in the drive's readahead cache, in which case
only controller overhead and a bus transfer are charged.

Rotational position is a pure function of wall-clock time (the platter never
stops spinning), so the model only has to remember the head's cylinder/track
and the state of the readahead cache between requests.

After every mechanical read the drive keeps reading sequentially into its
cache (128 KB on the HP 97560); a block ``k`` positions past the last
mechanical read becomes available roughly ``k`` media-transfer times later.
This is what gives sequential workloads their 3–4 ms average response times
in the paper.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.disk.geometry import HP97560, DiskGeometry
from repro.disk.seek import SeekModel


@dataclass
class ServiceBreakdown:
    """Component times of one serviced request (all ms).

    ``fault_ms`` is extra service time added by fault injection — a
    fail-slow spindle stretching the mechanical work (see
    :mod:`repro.faults`).  It is zero on healthy hardware.
    """

    overhead: float = 0.0
    seek: float = 0.0
    rotation: float = 0.0
    transfer: float = 0.0
    cache_wait: float = 0.0
    fault_ms: float = 0.0
    cache_hit: bool = False

    @property
    def total(self) -> float:
        return (
            self.overhead
            + self.seek
            + self.rotation
            + self.transfer
            + self.cache_wait
            + self.fault_ms
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready component breakdown (zero components omitted), used
        by the ``repro.obs`` disk-busy trace events."""
        row: Dict[str, object] = {"total_ms": self.total}
        for name in ("overhead", "seek", "rotation", "transfer",
                     "cache_wait", "fault_ms"):
            value = getattr(self, name)
            if value:
                row[name] = value
        if self.cache_hit:
            row["cache_hit"] = True
        return row


class DiskDrive:
    """HP 97560-class drive with seek curve, rotation, and readahead cache.

    Stateful: :meth:`service` must be called in nondecreasing start-time
    order (the array layer guarantees this since each drive serves one
    request at a time).
    """

    def __init__(
        self,
        geometry: DiskGeometry = HP97560,
        seek_model: Optional[SeekModel] = None,
        readahead: bool = True,
    ) -> None:
        self.geometry = geometry
        self.seek_model = seek_model if seek_model is not None else SeekModel()
        self.readahead = readahead
        # Geometry constants, derived once: service() runs per request.
        self._locate = geometry.locate
        self._seek_time = self.seek_model.seek_time
        self._overhead_ms = geometry.controller_overhead_ms
        self._head_switch_ms = geometry.head_switch_ms
        self._rotation_ms = geometry.rotation_ms
        self._bus_ms = geometry.block_bus_transfer_ms
        self._total_blocks = geometry.total_blocks
        self._cache_blocks = geometry.cache_blocks
        self._cylinder = 0
        self._track = 0
        # Readahead cache state: blocks [origin, origin + span) are (or are
        # becoming) cached; block origin+k is ready at origin_time + k*rate,
        # the streaming rate being the origin block's media time.
        self._ra_origin = -1
        self._ra_origin_time = 0.0
        self._ra_span = 0
        self._ra_rate = 0.0
        self.requests_served = 0
        self.cache_hits = 0

    # -- service -------------------------------------------------------------

    def service(self, lbn: int, start_time: float) -> ServiceBreakdown:
        """Service a read of block ``lbn`` beginning at ``start_time``.

        Returns the per-component breakdown; the completion time is
        ``start_time + breakdown.total``.
        """
        cylinder, track, target_fraction, media_ms = self._locate(lbn)
        overhead = self._overhead_ms
        t = start_time + overhead

        # Seek and rotation to ``lbn``: the readahead race below and the
        # mechanical read share this one computation.
        if cylinder != self._cylinder:
            seek = self._seek_time(cylinder - self._cylinder)
        elif track != self._track:
            seek = self._head_switch_ms
        else:
            seek = 0.0
        arrival = t + seek
        # The platter angle is a function of absolute time.
        rotation_ms = self._rotation_ms
        angle_fraction = (arrival / rotation_ms) % 1.0
        rotation = ((target_fraction - angle_fraction) % 1.0) * rotation_ms

        offset = lbn - self._ra_origin
        if self._ra_origin >= 0 and 0 <= offset < self._ra_span:
            ready = self._ra_origin_time + offset * self._ra_rate
            cache_wait = max(0.0, ready - t)
            # A distant readahead block may still be streaming off the
            # media; the drive serves whichever path finishes first, and a
            # fresh mechanical read beats waiting out a long stream.
            if cache_wait + self._bus_ms <= seek + rotation + media_ms:
                self.requests_served += 1
                self.cache_hits += 1
                return ServiceBreakdown(
                    overhead=overhead, transfer=self._bus_ms,
                    cache_wait=cache_wait, cache_hit=True,
                )

        # The mechanical read.  The bus is faster than the media on this
        # drive, so the transfers overlap: the media time is the transfer.
        done = arrival + rotation + media_ms
        self._cylinder = cylinder
        self._track = track
        if self.readahead:
            # The drive goes on reading the blocks after ``lbn`` into its
            # cache; the first of them is in one media time after ``done``.
            origin = lbn + 1
            self._ra_origin = origin
            self._ra_origin_time = done + media_ms
            self._ra_span = min(self._cache_blocks, self._total_blocks - origin)
            if self._ra_span > 0:
                self._ra_rate = self.geometry.media_transfer_ms(origin)
        self.requests_served += 1
        return ServiceBreakdown(overhead, seek, rotation, media_ms)

    @property
    def cylinder(self) -> int:
        """Current head cylinder (used by CSCAN scheduling)."""
        return self._cylinder
