"""The four historical VeriFS bugs from the paper's section 6.

Each flag re-introduces one bug exactly as the paper describes it, so the
bug-discovery benchmarks can measure how many operations MCFS needs to
expose each one.  A correct VeriFS is constructed with no flags.
"""

from __future__ import annotations

import enum


class VeriFSBug(enum.Enum):
    """Injectable defects, in the order the paper reports finding them."""

    # members are singletons, so identity hashing is correct -- and much
    # cheaper than Enum's name-based hash on the ``has_bug`` probes every
    # write and restore makes
    __hash__ = object.__hash__

    #: VeriFS1 bug 1 (found vs. Ext4 after ~9K operations): truncate
    #: failed to clear newly allocated space when expanding a file, so
    #: stale buffer bytes reappeared as file content.
    TRUNCATE_STALE_DATA = "truncate-stale-data"

    #: VeriFS1 bug 2 (found vs. Ext4 after ~12K operations): after a
    #: state rollback VeriFS did not call the FUSE cache-invalidation
    #: APIs, leaving the kernel's dentry cache describing a directory
    #: that no longer exists (mkdir then fails EEXIST on a "ghost").
    MISSING_CACHE_INVALIDATION = "missing-cache-invalidation"

    #: VeriFS2 bug 1 (found vs. VeriFS1 after ~900K operations): a write
    #: that created a hole past EOF failed to zero the gap, exposing
    #: stale bytes.
    WRITE_HOLE_STALE = "write-hole-stale"

    #: VeriFS2 bug 2 (found vs. VeriFS1 after ~1.2M operations): write
    #: updated the file size only when the file grew beyond its buffer
    #: *capacity*, not whenever it was appended to, so appends within
    #: the last chunk were invisible.
    SIZE_UPDATE_ON_CAPACITY_ONLY = "size-update-on-capacity-only"

    #: Seeded for the input-exploration benchmarks (not historical): a
    #: write that straddles a 4 KiB extent (chunk) boundary drops the
    #: spill into the second extent but still advances the size to the
    #: full write end, so the tail reads back stale/zero.  The default
    #: parameter pool cannot reach it -- its largest write ends at byte
    #: 4000, inside the first extent -- so only boundary-value argument
    #: generation (write sizes/offsets straddling 4095/4096/4097) can
    #: expose it.
    EXTENT_BOUNDARY_STALE = "extent-boundary-stale"


#: Bugs that shipped in VeriFS1 during the paper's first phase.
VERIFS1_HISTORICAL_BUGS = (
    VeriFSBug.TRUNCATE_STALE_DATA,
    VeriFSBug.MISSING_CACHE_INVALIDATION,
)

#: Bugs that shipped in VeriFS2 during the second phase.
VERIFS2_HISTORICAL_BUGS = (
    VeriFSBug.WRITE_HOLE_STALE,
    VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY,
)
