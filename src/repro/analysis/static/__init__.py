"""Whole-program soundness pass (part of ``repro analyze``).

Where :mod:`repro.analysis.lint` checks one module at a time for
determinism hazards, this pass runs over a project-wide model (class
attribute inventories, an import graph, a light call graph -- see
:mod:`repro.analysis.static.model`) and checks an invariant the
checker's verdicts silently rest on:

* :mod:`.snapshot` -- ``restore-blind``: mutable instance state must be
  reachable from its class's snapshot/restore surface.

The dirty marks the incremental abstraction rests on are checked by
execution instead: ``tests/test_incremental_abstraction.py`` compares
the incremental digest with a full walk after every operation.

:mod:`repro.analysis.analyze` builds the model and runs the pass.
"""

from repro.analysis.static.model import ProjectModel
from repro.analysis.static.snapshot import run_snapshot_pass

__all__ = ["ProjectModel", "run_snapshot_pass"]
