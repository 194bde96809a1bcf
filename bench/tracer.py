"""Outside-in tracing for the benchmark's traced runs.

The tracer wraps the *public* callables at each layer boundary of
``repro`` with timing closures, runs the workload, and removes every
wrapper again.  Nothing under ``src/`` is edited: a wrapper is installed
with ``setattr`` on the class that defines the method (the explorer,
the target and -- under the remount strategy -- the fs driver are all
built *inside* ``MCFS.run_*``, so patching instances is not possible
from outside) and the original is put back in ``uninstall``.

Two kinds of wrapper share one self-time stack:

* **span** boundaries (explorer / engine / ops / strategies /
  abstraction / statestore / dist / trail) append one record per call
  -- name, start, end, parent span -- while ``keep_spans`` is on;
* **low** boundaries, below the syscall line (kernel / fuse / verifs /
  fs / storage, ~50 calls per operation), only accumulate calls, busy
  and self seconds, keyed additionally by the enclosing span's name.

Self time of a call is its duration minus the durations of the wrapped
calls made inside it.  The wrappers' own cost lands in the *caller's*
self time; ``trace.overhead_ratio`` bounds it.

The stack is process-global and not thread-safe: at most one thread may
execute wrapped code while a tracer is installed (``served_job`` runs
the campaign in the daemon thread and times the client side with plain
timers for exactly this reason).
"""

from __future__ import annotations

import json
import types
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: upper bound on distinct boundary names (sizes the per-enclosing table)
MAX_NAMES = 48
#: the "no span is open" column of the per-enclosing table
NO_SPAN = MAX_NAMES - 1

#: marker attribute on every installed wrapper (the leak test greps it)
TRACED_FLAG = "__bench_traced__"

KERNEL_SYSCALLS = (
    "open", "close", "read", "write", "pread", "pwrite", "lseek", "mkdir",
    "rmdir", "unlink", "rename", "link", "symlink", "readlink", "truncate",
    "ftruncate", "stat", "lstat", "fstat", "getdents", "getdents_attrs",
    "chmod", "chown", "utimens", "access", "statfs", "fsync", "sync",
    "ioctl", "setxattr", "getxattr", "listxattr", "removexattr",
)
KERNEL_MOUNTS = ("mount", "umount", "remount")
DRIVER_METHODS = (
    "sync", "unmount", "lookup", "getattr", "getdents", "getdents_attrs",
    "create", "mkdir", "unlink", "rmdir", "read", "write", "truncate",
    "rename", "link", "symlink", "readlink", "setattr", "setxattr",
    "getxattr", "listxattr", "removexattr", "ioctl", "statfs",
    "check_consistency",
)


class Tracer:
    """Accumulates spans and per-boundary aggregates for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.busy: List[float] = []
        self.self_s: List[float] = []
        #: per-call durations for the boundaries that report percentiles
        self.durations: Dict[int, array] = {}
        #: low-boundary aggregates by enclosing span:
        #: index = low_id * MAX_NAMES + span_id (or + NO_SPAN)
        self.under_calls = [0] * (MAX_NAMES * MAX_NAMES)
        self.under_busy = [0.0] * (MAX_NAMES * MAX_NAMES)
        self._child: List[float] = []
        self._depth: List[int] = []
        self._cur = [NO_SPAN]  # id of the innermost open span boundary
        #: busy seconds of calls entered with nothing open above them
        self._top = [0.0]
        #: span records (columnar): boundary id, parent row, start, end
        self.keep_spans = False
        self.span_name = array("h")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open_rows: List[int] = []
        self.spans_seen = 0
        #: (first_row, run_id) marks so one file can hold several runs
        self.runs: List[Tuple[int, int]] = []
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------- names --
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            if nid >= NO_SPAN:
                raise ValueError("too many trace boundaries; raise MAX_NAMES")
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    # ---------------------------------------------------------- wrappers --
    def _low(self, func: Callable, nid: int,
             on_result: Optional[Callable] = None) -> Callable:
        child, depth, cur, top = (self._child, self._depth, self._cur,
                                  self._top)
        calls, busy, self_s = self.calls, self.busy, self.self_s
        under_calls, under_busy = self.under_calls, self.under_busy
        base = nid * MAX_NAMES
        now = perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            depth[nid] += 1
            start = now()
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                elapsed = now() - start
                self_s[nid] += elapsed - child.pop()
                depth[nid] -= 1
                if not depth[nid]:  # super()/self re-entries count once
                    calls[nid] += 1
                    busy[nid] += elapsed
                    slot = base + cur[0]
                    under_calls[slot] += 1
                    under_busy[slot] += elapsed
                if child:
                    child[-1] += elapsed
                else:
                    top[0] += elapsed

        return wrapper

    def _span(self, func: Callable, nid: int,
              on_result: Optional[Callable] = None) -> Callable:
        child, cur, top = self._child, self._cur, self._top
        calls, busy, self_s = self.calls, self.busy, self.self_s
        durations = self.durations.get(nid)
        now = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            child.append(0.0)
            outer = cur[0]
            cur[0] = nid
            tracer.spans_seen += 1
            row = -1
            if tracer.keep_spans:
                rows = tracer._open_rows
                row = len(tracer.span_name)
                tracer.span_name.append(nid)
                tracer.span_parent.append(rows[-1] if rows else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                rows.append(row)
            start = now()
            try:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = now()
                elapsed = end - start
                self_s[nid] += elapsed - child.pop()
                calls[nid] += 1
                busy[nid] += elapsed
                if durations is not None:
                    durations.append(elapsed)
                if row >= 0:
                    tracer.span_start[row] = start
                    tracer.span_end[row] = end
                    tracer._open_rows.pop()
                cur[0] = outer
                if child:
                    child[-1] += elapsed
                else:
                    top[0] += elapsed

        return wrapper

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` under a harness-side span: for entry points the
        harness calls itself (``replay_trail``, ``minimize_trail``)."""
        return self._span(func, self.name_id(name))(*args, **kwargs)

    # ----------------------------------------------------------- patching --
    def patch(self, cls: type, methods: Iterable[str], name: str,
              low: bool = False, keep_durations: bool = False,
              on_result: Optional[Callable] = None,
              skip_defined_on: Tuple[type, ...] = ()) -> None:
        """Wrap ``cls``'s ``methods`` under boundary ``name``.

        Each method is patched on the class in ``cls.__mro__`` that
        defines it (once), so subclasses sharing an implementation share
        one wrapper.  Methods defined on a class in ``skip_defined_on``
        (abstract bases whose hooks are empty) are left alone.
        """
        nid = self.name_id(name)
        if keep_durations:
            self.durations.setdefault(nid, array("d"))
        for method in methods:
            owner = next((klass for klass in cls.__mro__
                          if method in klass.__dict__), None)
            if owner is None or owner in skip_defined_on:
                continue
            original = owner.__dict__[method]
            if not isinstance(original, types.FunctionType):
                continue  # static/class methods and properties stay
            if getattr(original, TRACED_FLAG, False):
                continue  # already wrapped through another subclass
            wrapper = (self._low(original, nid, on_result) if low
                       else self._span(original, nid, on_result))
            wrapper.__name__ = original.__name__
            wrapper.__qualname__ = original.__qualname__
            wrapper.__doc__ = original.__doc__
            wrapper.__wrapped__ = original
            setattr(wrapper, TRACED_FLAG, True)
            setattr(owner, method, wrapper)
            self._patches.append((owner, method, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, method, original = self._patches.pop()
            setattr(owner, method, original)

    # ------------------------------------------------------------ readout --
    def begin_run(self, run_id: int, keep_spans: bool) -> None:
        self.keep_spans = keep_spans
        if keep_spans:
            self.runs.append((len(self.span_name), run_id))

    def total(self, name: str, field: str = "self_s") -> float:
        nid = self._ids.get(name)
        return getattr(self, field)[nid] if nid is not None else 0

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (boundary name up to its last dot)."""
        layers: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_s[nid]
        return layers

    def top_level_busy(self) -> float:
        """Busy seconds of boundaries entered with nothing open above
        them (kept separately from the self-time sums so the two can be
        checked against each other)."""
        return self._top[0]

    def under(self, low_name: str, span_name: str) -> Tuple[int, float]:
        """``(calls, busy seconds)`` of a low boundary while ``span_name``
        was the innermost open span."""
        low, span = self._ids.get(low_name), self._ids.get(span_name)
        if low is None or span is None:
            return 0, 0.0
        slot = low * MAX_NAMES + span
        return self.under_calls[slot], self.under_busy[slot]

    def percentile_us(self, name: str, fraction: float) -> float:
        nid = self._ids.get(name)
        values = self.durations.get(nid) if nid is not None else None
        if not values:
            return 0.0
        ordered = sorted(values)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index] * 1e6

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Dump the kept spans (columnar) and every aggregate as JSON."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        under = []
        for low, low_name in enumerate(self.names):
            for span in list(range(len(self.names))) + [NO_SPAN]:
                slot = low * MAX_NAMES + span
                if self.under_calls[slot]:
                    under.append({
                        "boundary": low_name,
                        "enclosing_span": (self.names[span]
                                           if span != NO_SPAN else None),
                        "calls": self.under_calls[slot],
                        "busy_s": self.under_busy[slot],
                    })
        document = {
            "format": "bench-trace/1",
            "names": self.names,
            "runs": [{"first_span": first, "run_id": run_id}
                     for first, run_id in self.runs],
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_us": [round((value - origin) * 1e6, 1)
                             for value in self.span_start],
                "dur_us": [round((end - start) * 1e6, 1)
                           for start, end in zip(self.span_start,
                                                 self.span_end)],
            },
            "aggregates": [
                {"boundary": name, "calls": self.calls[nid],
                 "busy_s": self.busy[nid], "self_s": self.self_s[nid]}
                for nid, name in enumerate(self.names)
            ],
            "below_syscall_line_by_enclosing_span": under,
        }
        if extra:
            document.update(extra)
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")
