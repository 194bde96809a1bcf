"""Counterexample trails: capture, deterministic replay, minimization.

The paper's workflow ends at a counterexample: Spin writes a trail file
and ``spin -t`` replays it so the developer can diagnose the failure.
This package closes the same loop for MCFS:

* :mod:`repro.trail.capture` -- serialise a discrepancy (spec + seed +
  full explorer schedule + expected outcome) into a self-contained
  ``*.trail.json``;
* :mod:`repro.trail.replay` -- rebuild the targets from the embedded
  spec, re-execute the schedule event for event, and report
  CONFIRMED / NOT-REPRODUCED / DIVERGED (a non-CONFIRMED replay of a
  fresh trail is itself a determinism bug);
* :mod:`repro.trail.minimize` -- ddmin delta debugging over the
  schedule's checkpoint tree that shrinks a multi-thousand-operation
  log to a 1-minimal reproducer, each probe on a freshly built harness.
"""

from repro.trail.capture import (
    Trail,
    TrailFormatError,
    capture_trail,
    report_digest,
    signature,
)
from repro.trail.minimize import (
    MinimizeResult,
    minimize_trail,
    minimize_trail_naive,
)
from repro.trail.replay import ReplayResult, TrailExecutor, replay_trail

__all__ = [
    "Trail",
    "TrailFormatError",
    "capture_trail",
    "signature",
    "report_digest",
    "ReplayResult",
    "TrailExecutor",
    "replay_trail",
    "MinimizeResult",
    "minimize_trail",
    "minimize_trail_naive",
]
