"""Static analysis for the MCFS reproduction: fsck + determinism lint.

MCFS only detects bugs that surface as *observable* divergence between
file systems.  This package adds the two complementary static layers:

* :mod:`repro.analysis.fsck` -- offline, fsck-style checkers that audit
  raw device images (and mounted trees) for latent corruption: leaked
  blocks, wrong link counts, dangling dirents, bitmap disagreement,
  broken journals, torn log nodes.  The block formats share one
  pFSCK-style walk (tree, link counts, allocation) and keep only their
  on-disk formats.
* :mod:`repro.analysis.analyze` -- ``repro analyze`` over the engine's
  own sources: the determinism lint (:mod:`repro.analysis.lint`:
  unseeded randomness, wall-clock reads, iteration over unordered
  collections) and the two whole-program soundness passes
  (:mod:`repro.analysis.static`), in one parse-and-pragma pass.

:mod:`repro.analysis.oracle` wires the fsck checkers into the explorer
as a per-state oracle, turning silent on-disk corruption into a
:class:`~repro.mc.explorer.PropertyViolation` with a replayable trace.
"""

from repro.analysis.findings import Finding, finding_from_dict
from repro.analysis.fsck import (
    check_image,
    check_mounted,
    detect_fstype,
)

__all__ = [
    "Finding",
    "finding_from_dict",
    "check_image",
    "check_mounted",
    "detect_fstype",
]
