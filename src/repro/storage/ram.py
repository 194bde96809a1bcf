"""RAM block devices (the paper's patched ``brd2`` driver).

Linux's stock ``brd`` driver requires every RAM disk to share one size;
the authors patched it ("renamed brd2") to allow per-device sizes because
XFS needs a 16 MB minimum while ext2/ext4 run on 256 KB devices.  Here
every :class:`RAMBlockDevice` takes its own size, which is all the patch
was for.
"""

from __future__ import annotations

from repro.clock import Cost
from repro.storage.device import BlockDevice


class RAMBlockDevice(BlockDevice):
    """A RAM-backed block device with near-zero access latency."""

    cost_category = "ram-io"
    access_cost = Cost.RAM_ACCESS
    per_byte_cost = Cost.RAM_PER_BYTE
