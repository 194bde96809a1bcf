"""Fault injection: power-cut semantics for simulated devices.

Wraps a device so that after a chosen number of write requests the
"power fails": every later write is silently dropped (the data never
reached the medium), while reads keep working so a post-mortem remount
can inspect exactly what survived.

This is the substrate for crash-consistency checking (the related-work
lineage of eXplode and B3): sweep the cut point across a workload's
writes and assert that recovery invariants hold at every single point.
"""

from __future__ import annotations

from typing import Optional

#: the requests that reach the medium: byte and block writes on a block
#: device, byte writes and erases on MTD flash
WRITE_REQUESTS = ("write", "write_block", "erase_block")


class PowerCutDevice:
    """A block or MTD device whose power can be cut mid-workload.

    ``cut_after_writes=N`` drops every write request after the first N.
    ``cut()`` cuts immediately.  ``writes_seen`` counts write requests,
    so a sweep harness can first run the workload uncut to learn the
    total, then re-run with each cut point.

    The write requests (:data:`WRITE_REQUESTS`) the inner device has are
    counted; everything else -- reads, geometry, snapshots -- is the
    inner device's own, and a request it lacks is lacking here too, so
    a wrapped block device is still no MTD device.  An erase dropped by
    the cut leaves the block as it was (a simplification: real NOR
    flash can tear an erase, which JFFS2 tolerates by treating
    non-0xFF-prefixed space as dirty).
    """

    def __init__(self, inner, cut_after_writes: Optional[int] = None):
        self.inner = inner
        self.cut_after_writes = cut_after_writes
        self.writes_seen = 0
        self.writes_dropped = 0
        self.powered = True

    def __getattr__(self, name: str):
        forwarded = getattr(self.inner, name)
        if name not in WRITE_REQUESTS:
            return forwarded

        def request(*args):
            self.writes_seen += 1
            if self.cut_after_writes is not None and \
                    self.writes_seen > self.cut_after_writes:
                self.powered = False
            if not self.powered:
                self.writes_dropped += 1
                return None  # the medium never saw it
            return forwarded(*args)

        return request

    def cut(self) -> None:
        """Cut the power now: all subsequent writes are lost."""
        self.powered = False

    def restore_power(self) -> None:
        self.powered = True
