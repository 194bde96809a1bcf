"""The checking daemon: sockets in front of the campaign engine.

One single-threaded :mod:`selectors` loop multiplexes three duties:

* **accepting and reading clients** -- newline-delimited JSON requests
  (:mod:`repro.server.protocol`) on a Unix-domain socket (default) or
  TCP;
* **advancing campaigns** -- between socket polls the loop gives the
  engine one ``step()`` (one work-unit slice of one job), so network
  responsiveness and checking progress interleave without threads;
* **streaming events** -- the engine's event log is broadcast to every
  connection watching the relevant job; a watcher that arrives late is
  caught up from the log (``from_seq``) before going live.

Because the engine is deterministic and the daemon adds no time sources
of its own (the selector timeout only paces the loop; virtual time comes
from the engine's clock), a scripted session -- submit, watch, pause,
restart, resume -- produces byte-identical event payloads every run.

Graceful shutdown (the ``shutdown`` op or :meth:`ReproServer.stop`)
pauses every running job at its unit boundary and spools it, so a
restarted daemon resumes exactly where this one stopped.
"""

from __future__ import annotations

import os
import selectors
import socket
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.server.engine import CampaignEngine, EngineConfig, ServerError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    JobEvent,
    ProtocolError,
    SubmitRequest,
    decode_line,
    encode_line,
)

#: selector timeout while campaigns are runnable (poll fast, step often)
BUSY_POLL = 0.0
#: selector timeout while idle (block briefly; requests wake us)
IDLE_POLL = 0.2

#: refuse absurd lines before json sees them (a client bug, not a campaign)
MAX_LINE_BYTES = 16 * 1024 * 1024


class _Connection:
    """Per-client buffers and watch subscriptions."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()
        #: job ids this client watches ("*" = every job)
        self.watches: Set[str] = set()


class ReproServer:
    """Serve a :class:`CampaignEngine` over JSON-lines sockets."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 engine: Optional[CampaignEngine] = None,
                 config: Optional[EngineConfig] = None):
        if socket_path is None and host is None:
            raise ValueError("need a unix socket path or a TCP host")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.engine = engine if engine is not None \
            else CampaignEngine(config)
        self.engine.subscribe(self._broadcast)
        self._selector = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._connections: Dict[socket.socket, _Connection] = {}
        self._stopping = False
        self._running = False

    # ---------------------------------------------------------------- setup --
    def start(self) -> None:
        """Bind and listen; idempotent."""
        if self._listener is not None:
            return
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, "accept")

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    # ----------------------------------------------------------------- loop --
    def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) lands."""
        self.start()
        self._running = True
        try:
            while not self._stopping:
                self.poll(BUSY_POLL if self.engine.busy else IDLE_POLL)
            # drain goodbyes so the shutdown response reaches its client
            for _ in range(10):
                if not any(conn.outbox
                           for conn in self._connections.values()):
                    break
                self.poll(0.05)
        finally:
            self._running = False
            self.stop()

    def poll(self, timeout: float = IDLE_POLL) -> None:
        """One loop iteration: sockets, then one engine step.

        Responses go out before the step as well as after it: a step
        runs a whole unit slice, and a request already answered need
        not wait for it."""
        self.start()
        for key, _events in self._selector.select(timeout):
            if key.data == "accept":
                self._accept()
            else:
                self._service(key.fileobj)
        self._flush_all()
        if not self._stopping:
            self.engine.step()
        self._flush_all()

    def stop(self) -> None:
        """Pause running jobs into the spool and tear the sockets down."""
        self._stopping = True
        self.engine.shutdown()
        for sock in list(self._connections):
            self._drop(sock)
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except KeyError:
                pass
            self._listener.close()
            self._listener = None
            if self.socket_path is not None \
                    and os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    # -------------------------------------------------------------- sockets --
    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        self._connections[sock] = _Connection(sock)
        self._selector.register(sock, selectors.EVENT_READ, "client")

    def _drop(self, sock: socket.socket) -> None:
        self._connections.pop(sock, None)
        try:
            self._selector.unregister(sock)
        except KeyError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _service(self, sock: socket.socket) -> None:
        conn = self._connections.get(sock)
        if conn is None:
            return
        try:
            chunk = sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._drop(sock)
            return
        if not chunk:
            self._drop(sock)
            return
        conn.inbox.extend(chunk)
        if len(conn.inbox) > MAX_LINE_BYTES:
            self._drop(sock)
            return
        while b"\n" in conn.inbox:
            line, _, rest = bytes(conn.inbox).partition(b"\n")
            conn.inbox = bytearray(rest)
            if line.strip():
                self._handle_line(conn, line)

    def _flush_all(self) -> None:
        for sock, conn in list(self._connections.items()):
            if not conn.outbox:
                continue
            try:
                sent = sock.send(bytes(conn.outbox))
                del conn.outbox[:sent]
            except BlockingIOError:
                continue
            except OSError:
                self._drop(sock)

    # ------------------------------------------------------------- requests --
    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = decode_line(line)
        except ProtocolError as error:
            conn.outbox.extend(encode_line(
                {"id": None, "ok": False, "error": str(error)}))
            return
        request_id = request.get("id")
        try:
            payload = self._dispatch(conn, request)
            response = {"id": request_id, "ok": True}
            response.update(payload)
        except (ServerError, ProtocolError, KeyError, ValueError) as error:
            response = {"id": request_id, "ok": False,
                        "error": f"{type(error).__name__}: {error}"}
        conn.outbox.extend(encode_line(response))

    def _dispatch(self, conn: _Connection,
                  request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        engine = self.engine
        if op == "ping":
            return {"pong": True, "version": PROTOCOL_VERSION,
                    "vtime": engine.clock.now, "jobs": len(engine.jobs)}
        if op == "submit":
            descriptor = engine.submit(SubmitRequest.from_dict(request))
            return {"job": descriptor.to_dict()}
        if op == "jobs":
            return {"jobs": [descriptor.to_dict()
                             for descriptor in engine.list_jobs()]}
        if op == "job":
            return {"job": engine.job(request["job_id"]).to_dict()}
        if op == "result":
            return {"result": engine.result(request["job_id"]).to_dict()}
        if op == "watch":
            return self._watch(conn, request)
        if op == "pause":
            return {"job": engine.pause(request["job_id"]).to_dict()}
        if op == "resume":
            return {"job": engine.resume(request["job_id"]).to_dict()}
        if op == "cancel":
            return {"job": engine.cancel(request["job_id"]).to_dict()}
        if op == "shutdown":
            self._stopping = True
            return {"stopping": True}
        raise ProtocolError(f"unknown op {op!r}")

    def _watch(self, conn: _Connection,
               request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id", "*")
        state = None
        if job_id != "*":
            state = self.engine.job(job_id).state  # raises UnknownJob
        from_seq = int(request.get("from_seq", 0))
        replayed = self.engine.events_for(
            None if job_id == "*" else job_id, from_seq)
        # subscribe *before* queuing the replay: both land in this
        # outbox in order, and nothing can emit between (single thread)
        conn.watches.add(job_id)
        for event in replayed:
            conn.outbox.extend(encode_line({"event": event.to_dict()}))
        # the job's state rides along so a client watching an already
        # finished job (or one whose events predate from_seq) can stop
        # instead of waiting for a terminal event that will never come
        return {"watching": job_id, "replayed": len(replayed),
                "state": state}

    # --------------------------------------------------------------- events --
    def _broadcast(self, event: JobEvent) -> None:
        line = None
        for conn in self._connections.values():
            if "*" in conn.watches or event.job_id in conn.watches:
                if line is None:
                    line = encode_line({"event": event.to_dict()})
                conn.outbox.extend(line)
