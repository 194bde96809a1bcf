"""repro.server -- campaign-as-a-service.

A persistent checking daemon that queues, schedules, and streams
:class:`~repro.dist.spec.CheckSpec` campaigns to many concurrent
clients:

* :mod:`repro.server.protocol` -- the JSON-lines wire shapes;
* :mod:`repro.server.engine` -- the deterministic scheduling core
  (priority queue, bounded slots, tenant budgets, pause/resume spool);
* :mod:`repro.server.daemon` -- the selectors loop serving it;
* :mod:`repro.server.client` -- the blocking client library the CLI
  verbs (``repro serve/submit/jobs/watch/pause/resume/cancel``) wrap.

See ``docs/server.md`` for the protocol and job lifecycle.
"""

from repro.server.client import ReproClient, RequestFailed, ServerUnavailable
from repro.server.daemon import ReproServer
from repro.server.engine import (
    BudgetExceeded,
    CampaignEngine,
    EngineConfig,
    InvalidTransition,
    ServerError,
    UnknownJob,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    JobDescriptor,
    JobEvent,
    SubmitRequest,
)

__all__ = [
    "PROTOCOL_VERSION",
    "BudgetExceeded",
    "CampaignEngine",
    "EngineConfig",
    "InvalidTransition",
    "JobDescriptor",
    "JobEvent",
    "ReproClient",
    "ReproServer",
    "RequestFailed",
    "ServerError",
    "ServerUnavailable",
    "SubmitRequest",
    "UnknownJob",
]
