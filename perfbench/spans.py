"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed by wrappers that the worker installs
around dsex's public layer functions, at the name each caller looks
up. Every span records its name, start, end, parent and thread; the
parent stack is per thread. A span opened on a pool thread with an
empty stack takes the main thread's innermost open span as its parent,
because only the main thread hands work to pools. Spans stay in
memory as flat arrays and are written out once, at the end.

Self time is a span's duration minus the union of its children's
intervals (children on two pool threads may overlap).
"""

from __future__ import annotations

import contextlib
import threading
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.attrs: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._main = threading.main_thread()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            with self._lock:
                code = self._codes.setdefault(name, len(self.names))
                if code == len(self.names):
                    self.names.append(name)
        return code

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and threading.current_thread() is not self._main:
            parent = self._main_stack[-1]
        else:
            parent = -1
        code = self._code(name)
        with self._lock:
            index = len(self.start)
            self.name.append(code)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name, attr=None):
        """A traced version of ``fn``.

        ``name`` is a string, or a callable of the call's arguments for
        spans named after the receiver (one per step kind). ``attr``
        maps (args, result) to a value stored with the span. An
        exception with a ``kind`` (an EvalError) is recorded by kind.
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer.close(index)
                kind = getattr(err, "kind", None)
                tracer.errors[index] = getattr(kind, "value", type(err).__name__)
                raise
            tracer.close(index)
            if attr is not None:
                tracer.attrs[index] = attr(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr_name: str, replacement) -> None:
        self._undo.append((owner, attr_name, owner.__dict__[attr_name]))
        setattr(owner, attr_name, replacement)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr_name, original = self._undo.pop()
            setattr(owner, attr_name, original)

    def analyse(self):
        """Per-span self time and the top-level span each one ran under."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        reach = array("d", bytes(8 * n))
        root = array("q", range(n))
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            root[i] = root[p]
            # spans are stored in start order, so each parent's children
            # arrive sorted by start: merge their intervals on the fly
            s, e = max(self.start[i], reach[p]), min(self.end[i], self.end[p])
            if e > s:
                covered[p] += e - s
            if e > reach[p]:
                reach[p] = e
        self_time = array("d", (self.end[i] - self.start[i] - covered[i] for i in range(n)))
        return self_time, root

    def write(self, path) -> None:
        """One line per span: index, parent, name, start, end, thread."""
        threads: dict[int, int] = {}
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s,thread\n")
            for i in range(len(self.start)):
                thread = threads.setdefault(self.thread[i], len(threads))
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{thread}\n"
                )

    def summary(self):
        """Per span name: calls, total self seconds and span indices."""
        self_time, root = self.analyse()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        per_call: dict[str, list[int]] = defaultdict(list)
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self_time[i]
            per_call[name].append(i)
        return calls, self_s, per_call, self_time, root
