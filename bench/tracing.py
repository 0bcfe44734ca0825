"""Span tracing from outside the package.

The tracer replaces module attributes through which each layer is
called (``ri.draw_stream``, ``ri.batch_t2``, ``montecarlo.ri_test``,
...) with wrappers that record one span per call: name, start, end,
parent span and operation id.  No package source is touched; removing
the wrappers restores the original objects.  A wrapped name that no
longer exists is recorded as absent, not as an error.

Spans are kept in memory in flat integer arrays and written out once,
when the run ends.  Self times are computed afterwards: a span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

ROOT_PARENT = -1
_MISSING = object()
SETUP_OP = -1


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = SETUP_OP
        # While paused (during correctness checks) wrappers call straight
        # through and record nothing.
        self.paused = False
        self.absent: list[str] = []
        self.notes: dict[str, list] = {}
        # open span ids; the bottom entry stands for "no parent"
        self._stack: list[int] = [ROOT_PARENT]
        self._targets: list[tuple] = []
        self._installed: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def note(self, key: str, value) -> None:
        """Attach a per-call observation (a shape, a result count)."""
        self.notes.setdefault(key, []).append(value)

    # -- recording ---------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _wrap(self, fn, span_name, classify, on_return):
        # Per-call cost matters (mc-size makes ~10^5 calls a second), so
        # the hot path uses pre-bound locals only.
        nid = self.name_id(span_name)
        clock = time.perf_counter_ns
        tracer = self
        stack, start, end = self._stack, self.start, self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_op = self.name_col.append, self.parent.append, self.op.append
        add_start, add_end = start.append, end.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(start)
            add_name(nid if classify is None else tracer.name_id(classify(args, kwargs)))
            add_parent(stack[-1])
            add_op(tracer.op_id)
            add_start(0)
            add_end(0)
            push(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                pop()
            if on_return is not None and tracer.op_id != SETUP_OP:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id: int, kind: str) -> int:
        """Open the benchmark's own span around one operation."""
        self.op_id = op_id
        sid = self._open(self.name_id(f"op.{kind}"))
        self.start[sid] = time.perf_counter_ns()
        return sid

    def end_op(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------

    def target(self, owner, attr: str, span_name: str, classify=None, on_return=None):
        """Register ``owner.attr`` for wrapping under ``span_name``.

        ``classify(args, kwargs)`` may pick the span name per call;
        ``on_return(tracer, args, kwargs, result)`` may record notes.
        """
        self._targets.append((owner, attr, span_name, classify, on_return))

    def install(self) -> None:
        for owner, attr, span_name, classify, on_return in self._targets:
            # Take the attribute from the owner's own namespace so that
            # uninstalling restores exactly what was there; an inherited
            # method is not wrapped on a subclass.
            own = vars(owner).get(attr, _MISSING)
            current = own
            if own is _MISSING and not isinstance(owner, type):
                current = getattr(owner, attr, _MISSING)
            if current is _MISSING:
                label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if isinstance(current, classmethod):
                wrapped = classmethod(self._wrap(current.__func__, span_name, classify, on_return))
            else:
                wrapped = self._wrap(current, span_name, classify, on_return)
            self._installed.append((owner, attr, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._installed):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._installed.clear()

    # -- analysis ----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span and the name table to a compressed file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


class SpanTable:
    """Durations and self times of recorded spans, with name lookup."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.dur_ns = (a["end"] - a["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        child_ns = np.bincount(
            self.parent[has_parent], weights=self.dur_ns[has_parent], minlength=self.dur_ns.size
        )
        self.self_ns = self.dur_ns - child_ns

    def mask(self, *names: str, prefix: str | None = None, traced_only: bool = False) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names or (prefix and n.startswith(prefix))]
        m = np.isin(self.name, ids)
        if traced_only:
            m &= self.op != SETUP_OP
        return m

    def parent_names(self) -> np.ndarray:
        """Name id of each span's parent, -1 at the root."""
        out = np.full(self.name.size, -1, dtype=np.int64)
        has_parent = self.parent >= 0
        out[has_parent] = self.name[self.parent[has_parent]]
        return out
