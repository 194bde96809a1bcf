"""Crash-consistency sweeps: cut the power at every write and recover.

The paper's related work singles out model checkers "strictly focused on
crash consistency" (eXplode, B3, FiSC).  MCFS targets live behaviour, but
its substrate makes the crash dimension checkable too: run a workload,
cut the power after the K-th device write for every K, remount, and ask

1. does the file system recover to a *consistent* state (fsck clean)?
2. is the recovered state a *legal* one -- the state of some synced
   prefix of the workload (no phantom or half-applied operations visible
   after recovery)?

SimExt4's write-ahead journal should pass both at every cut point (its
flush path only reaches the disk inside journaled transactions); SimExt2
writes metadata in place, so some cut points land between dependent
writes and recovery sees torn metadata -- the reason journals exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.clock import SimClock
from repro.core.abstraction import AbstractionOptions, abstract_state
from repro.errors import FsError
from repro.kernel.kernel import Kernel
from repro.storage.fault import PowerCutDevice, PowerCutMTD


@dataclass
class CrashOutcome:
    """What recovery found after one power-cut point."""

    cut_after_writes: int
    consistent: bool
    problems: List[str] = field(default_factory=list)
    recovered_state: Optional[str] = None
    #: True when the recovered state equals some synced prefix's state
    legal_state: Optional[bool] = None


@dataclass
class CrashSweepResult:
    total_writes: int
    outcomes: List[CrashOutcome] = field(default_factory=list)

    @property
    def inconsistent_points(self) -> List[int]:
        return [o.cut_after_writes for o in self.outcomes if not o.consistent]

    @property
    def illegal_points(self) -> List[int]:
        return [
            o.cut_after_writes
            for o in self.outcomes
            if o.consistent and o.legal_state is False
        ]


class CrashHarness:
    """Runs a workload under power-cut sweeps for one file-system type.

    ``workload(kernel, mountpoint)`` performs operations and is expected
    to call ``kernel.sync()`` at its sync points; the harness records the
    abstract state at each sync as the set of *legal* recovery states.
    """

    def __init__(self, fstype_factory: Callable[[], object],
                 device_factory: Callable[[SimClock], object],
                 workload: Callable[[Kernel, str], None],
                 mountpoint: str = "/mnt/fs",
                 options: AbstractionOptions = AbstractionOptions(),
                 fault_wrapper=PowerCutDevice):
        self.fstype_factory = fstype_factory
        self.device_factory = device_factory
        self.workload = workload
        self.mountpoint = mountpoint
        self.options = options
        #: PowerCutDevice for block devices, PowerCutMTD for MTD flash
        self.fault_wrapper = fault_wrapper

    def _run_once(self, cut_after: Optional[int]):
        """Run the workload on a fresh fs; return (device, legal states)."""
        clock = SimClock()
        kernel = Kernel(clock)
        fstype = self.fstype_factory()
        device = self.fault_wrapper(self.device_factory(clock),
                                    cut_after_writes=cut_after)
        # format with power on and the counter not yet armed: mkfs is not
        # part of the crashed workload
        armed = device.cut_after_writes
        device.cut_after_writes = None
        fstype.mkfs(device)
        device.writes_seen = 0
        device.cut_after_writes = armed
        kernel.mount(fstype, device, self.mountpoint)

        # the freshly formatted state is the legal recovery target for any
        # crash before the first sync completes
        legal_states: List[str] = [
            abstract_state(kernel, self.mountpoint, self.options)
        ]

        original_sync = kernel.sync

        def sync_and_record():
            original_sync()
            if device.powered:
                legal_states.append(
                    abstract_state(kernel, self.mountpoint, self.options))

        kernel.sync = sync_and_record  # type: ignore[method-assign]
        try:
            self.workload(kernel, self.mountpoint)
            kernel.sync()
        except FsError:
            pass  # a cut mid-workload may surface as I/O-ish errors
        return device, fstype, legal_states

    def count_writes(self) -> int:
        """Dry run (no cut) to learn the workload's total write count."""
        device, _fstype, _legal = self._run_once(cut_after=None)
        return device.writes_seen

    def legal_states(self) -> List[str]:
        """Abstract states at the workload's sync points (uncut run)."""
        _device, _fstype, states = self._run_once(cut_after=None)
        return states

    def crash_at(self, cut_after: int,
                 legal_states: Optional[List[str]] = None) -> CrashOutcome:
        """Cut power after ``cut_after`` writes, reboot, inspect."""
        device, fstype, _legal = self._run_once(cut_after=cut_after)
        if legal_states is None:
            # reference run (deterministic workload => same sync states)
            legal_states = self.legal_states()

        # "reboot": mount a fresh driver instance over what survived
        recovery_clock = SimClock()
        recovery_kernel = Kernel(recovery_clock)
        device.restore_power()
        # rebind the surviving image onto a fresh device for recovery
        survivor = self.device_factory(recovery_clock)
        survivor.restore_image(device.snapshot_image())
        try:
            recovery_kernel.mount(fstype, survivor, self.mountpoint)
        except FsError as error:
            return CrashOutcome(cut_after_writes=cut_after, consistent=False,
                                problems=[f"mount failed: {error}"])
        fs = recovery_kernel.mount_at(self.mountpoint).fs
        problems = fs.check_consistency()
        if problems:
            return CrashOutcome(cut_after_writes=cut_after, consistent=False,
                                problems=problems)
        try:
            recovered = abstract_state(recovery_kernel, self.mountpoint,
                                       self.options)
        except FsError as error:
            return CrashOutcome(cut_after_writes=cut_after, consistent=False,
                                problems=[f"walk failed: {error}"])
        # the freshly formatted (empty) state is always legal too
        legal = recovered in legal_states or cut_after == 0
        if not legal_states:
            legal = True  # workload never synced: anything goes
        return CrashOutcome(cut_after_writes=cut_after, consistent=True,
                            recovered_state=recovered, legal_state=legal)

    def sweep(self, step: int = 1, limit: Optional[int] = None) -> CrashSweepResult:
        """Crash at every ``step``-th write point across the workload."""
        total = self.count_writes()
        legal_states = self.legal_states()
        result = CrashSweepResult(total_writes=total)
        points = range(0, min(total, limit or total) + 1, step)
        for cut_after in points:
            result.outcomes.append(self.crash_at(cut_after, legal_states))
        return result
