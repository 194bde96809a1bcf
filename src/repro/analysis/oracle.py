"""Per-state fsck oracle: turn silent corruption into a checked property.

The cross-file-system comparison only catches bugs that make the tested
systems *disagree*.  A bug that corrupts the on-disk image while the
POSIX-visible tree stays plausible -- a leaked block, an over-counted
link, a dirent pointing into freed space -- sails straight through.
The oracle closes that hole: every N explored operations it syncs each
file system under test, snapshots its device image, and runs the
offline :mod:`repro.analysis.fsck` checkers over the images, one
after another.  Any error-severity finding
raises :class:`FsckCorruptionError`, a
:class:`~repro.core.integrity.DiscrepancyError` subclass, so the
explorer halts with a **replayable** report exactly as it does for a
cross-FS discrepancy -- the findings ride along in the report.

Backends with no device image (the VeriFS reference implementations)
are audited with the generic VFS-level tree checker instead.

Checking time is charged to the simulated clock (``Cost.FSCK_FIXED`` +
``Cost.FSCK_PER_BYTE`` per image byte), so ``fsck_every`` shows up
honestly in the states/second numbers.  The charge models a pFSCK-style
parallel checker: it is divided among ``min(images, 4)`` lanes.  Only
the charge is divided; the host checks the images one at a time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.fsck import check_image, check_mounted
from repro.clock import Cost
from repro.core.integrity import DiscrepancyError


class FsckCorruptionError(DiscrepancyError):
    """An image failed its fsck oracle; carries report + findings."""

    def __init__(self, report, findings: Sequence[Finding]):
        super().__init__(report)
        self.findings: List[Finding] = list(findings)


class FsckOracle:
    """Callable oracle over a :class:`~repro.core.engine.SyscallEngine`.

    Invoked by the explorer (``fsck_every=N``); raises
    :class:`FsckCorruptionError` when any file system's synced image (or,
    for device-less backends, its mounted tree) violates an invariant.
    """

    def __init__(self, engine):
        self.engine = engine
        self.checks_run = 0
        self.images_checked = 0

    # ----------------------------------------------------------- internals --
    def _image_job(self, fut) -> dict:
        """check_image kwargs for one FUT; extra keys are filtered per-FS."""
        return {
            "image": fut.device.snapshot_image(),
            "fstype": getattr(fut.fstype, "name", None),
            "journal_blocks": getattr(fut.fstype, "journal_blocks", None),
            "erase_block_size": getattr(
                fut.device, "erase_block_size",
                getattr(fut.fstype, "erase_block_size", None)),
        }

    def _charge(self, image_bytes: int, images: int) -> None:
        if not images:
            return
        # a modelled pFSCK pool: one lane per image, at most four
        cost = images * Cost.FSCK_FIXED + image_bytes * Cost.FSCK_PER_BYTE
        self.engine.futs[0].clock.charge(cost / min(images, 4), "fsck")

    def _fail(self, errors: List[Tuple[str, Finding]]) -> None:
        labels = sorted({label for label, _ in errors})
        first_label, first = errors[0]
        summary = (
            f"fsck oracle: {len(errors)} invariant violation(s) on "
            f"{', '.join(labels)}; first: [{first_label}] {first.describe()}"
        )
        report = self.engine._report("corruption", summary)
        report.findings = [finding for _, finding in errors]
        raise FsckCorruptionError(report, report.findings)

    # --------------------------------------------------------------- oracle --
    def __call__(self) -> List[Tuple[str, Finding]]:
        """Check every FUT; returns non-error findings, raises on errors."""
        self.checks_run += 1
        with_device = []
        without_device = []
        for fut in self.engine.futs:
            fut.sync()
            (with_device if fut.device is not None
             else without_device).append(fut)

        jobs = [self._image_job(fut) for fut in with_device]
        self._charge(sum(len(job["image"]) for job in jobs), len(jobs))
        self.images_checked += len(jobs)

        labelled: List[Tuple[str, Finding]] = []
        for fut, job in zip(with_device, jobs):
            labelled.extend((fut.label, finding) for finding in check_image(**job))
        for fut in without_device:
            mounted = fut.kernel.mount_at(fut.mountpoint).fs
            labelled.extend((fut.label, finding)
                            for finding in check_mounted(mounted))

        errors = [(label, finding) for label, finding in labelled
                  if finding.severity == "error"]
        if errors:
            self._fail(errors)
        return labelled
