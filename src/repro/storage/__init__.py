"""Simulated storage devices.

The paper backs its file systems with RAM block devices (a patched ``brd``
renamed ``brd2`` that allows per-device sizes), plain HDD/SSD block devices
for the Figure 2 comparison, and an ``mtdram`` MTD character device for
JFFS2.  This package provides all of them as
deterministic simulations that charge their latencies to a shared
:class:`repro.clock.SimClock`.
"""

from repro.storage.device import BlockDevice, DeviceStats, DiskSnapshot
from repro.storage.ram import RAMBlockDevice
from repro.storage.disk import HDDBlockDevice, SSDBlockDevice
from repro.storage.mtd import MTDDevice, MTDSnapshot
from repro.storage.fault import PowerCutDevice

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "DiskSnapshot",
    "RAMBlockDevice",
    "HDDBlockDevice",
    "SSDBlockDevice",
    "MTDDevice",
    "MTDSnapshot",
    "PowerCutDevice",
]
