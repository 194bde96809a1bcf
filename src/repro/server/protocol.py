"""Wire protocol of the campaign server: JSON lines, versioned shapes.

The daemon and its clients speak **newline-delimited JSON** over a
stream socket (Unix domain by default, TCP optionally).  Three kinds of
document cross the wire:

* **requests** -- ``{"id": N, "op": "...", ...params}``; every request
  carries a client-chosen correlation id;
* **responses** -- ``{"id": N, "ok": true, ...payload}`` or
  ``{"id": N, "ok": false, "error": "..."}``; exactly one per request,
  echoing its id;
* **events** -- ``{"event": {...}}`` pushed asynchronously to
  subscribed connections (no id; see :class:`JobEvent`).

The dataclasses here are the canonical payload shapes.  They are
deliberately built from JSON-safe primitives only -- the wire-safety
static pass (``repro analyze``, rule ``unpicklable-field``) scans every
dataclass in ``repro.server`` modules exactly like the ``repro.dist``
protocol, so an unserialisable field is a lint error, not a mid-campaign
surprise.

Framing is one JSON document per ``\\n``-terminated line, encoded with
sorted keys so identical payloads are byte-identical -- the determinism
tests compare raw event streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.util.fieldcodec import FieldCodec

PROTOCOL_VERSION = 1

#: every request verb the daemon understands
OPS = (
    "ping", "submit", "jobs", "job", "result", "watch",
    "pause", "resume", "cancel", "shutdown",
)

#: job lifecycle states (see docs/server.md for the transition diagram)
QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, PAUSED, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: event kinds a watcher can receive, in lifecycle order
EVENT_KINDS = (
    "submitted", "store-forced", "started", "heartbeat", "progress",
    "trail", "discrepancy", "paused", "resumed", "cancelled", "done",
    "failed",
)

#: event kinds that end a job's stream (watchers stop on these)
TERMINAL_EVENTS = frozenset(("done", "failed", "cancelled"))


@dataclass(frozen=True)
class SubmitRequest:
    """A campaign submission: the spec plus scheduling metadata.

    ``spec`` is a :meth:`repro.dist.spec.CheckSpec.to_dict` document --
    the same picklable run description the distributed fleet ships, so
    anything ``repro check --workers`` can run, the server can queue.
    """

    spec: Dict[str, Any]
    tenant: str = "default"
    priority: int = 0
    #: per-job fleet width: every slice is a
    #: :class:`~repro.dist.DistributedChecker` run, on this many forked
    #: workers when > 1, inline in the daemon (a fleet of zero) otherwise
    workers: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"spec": dict(self.spec), "tenant": self.tenant,
                "priority": self.priority, "workers": self.workers}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "SubmitRequest":
        return cls(
            spec=dict(document["spec"]),
            tenant=document.get("tenant", "default"),
            priority=int(document.get("priority", 0)),
            workers=int(document.get("workers", 1)),
        )


@dataclass
class JobDescriptor(FieldCodec):
    """Everything a client can know about a job without its full result.

    This is the shape ``repro jobs`` renders and every event stream
    starts from; the full merged :class:`~repro.dist.DistResult` is
    fetched separately (``result`` op) because it embeds the visited
    table.
    """

    job_id: str
    tenant: str
    priority: int
    state: str
    workers: int
    spec: Dict[str, Any] = field(default_factory=dict)
    #: store the client asked for vs. what admission control granted
    requested_store: str = "exact"
    effective_store: str = "exact"
    store_forced: bool = False
    #: virtual timestamps on the engine's deterministic clock
    submitted_vtime: float = 0.0
    started_vtime: Optional[float] = None
    finished_vtime: Optional[float] = None
    units_total: int = 0
    units_done: int = 0
    operations: int = 0
    visited_states: int = 0
    discrepancies: int = 0
    trail_paths: List[str] = field(default_factory=list)
    #: tenant-budget reservation this job holds while active (bytes)
    planned_store_bytes: int = 0
    error: Optional[str] = None

    @property
    def active(self) -> bool:
        """True while the job holds queue/slot/budget resources."""
        return self.state not in TERMINAL_STATES


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's totally-ordered event stream.

    ``seq`` is the engine-global sequence number (watchers resume from
    ``from_seq`` after a reconnect) and ``vtime`` the virtual-clock
    stamp, so two runs of the same scenario produce byte-identical
    streams -- the replay-exactly property the multi-client tests pin.
    """

    kind: str
    job_id: str
    seq: int
    vtime: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "job_id": self.job_id, "seq": self.seq,
                "vtime": self.vtime, "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "JobEvent":
        return cls(
            kind=document["kind"],
            job_id=document["job_id"],
            seq=int(document["seq"]),
            vtime=float(document["vtime"]),
            payload=dict(document.get("payload", {})),
        )

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS


# ------------------------------------------------------------------ framing --
def encode_line(document: Dict[str, Any]) -> bytes:
    """One JSON document as one wire line (sorted keys: byte-stable)."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    try:
        document = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable wire line: {error}") from None
    if not isinstance(document, dict):
        raise ProtocolError(
            f"wire line must be a JSON object, got {type(document).__name__}")
    return document


class ProtocolError(ValueError):
    """A malformed wire document (framing or shape)."""
