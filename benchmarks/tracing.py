"""Spans and counts recorded around calls into the library, from outside it.

A span has a name, a start, an end, a parent span and an op id. Spans live
in flat arrays while the run lasts and are written out when it ends. Calls
are synchronous, so a span's children lie inside it and never overlap, and
its self time is its duration minus theirs.

Hooks replace a name where the caller looks it up: a module attribute, or a
method on one instance. A hook whose target does not exist is recorded as
absent, so that a metric read from it can say so instead of reading 0.
"""
from __future__ import annotations

import gzip
from array import array
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._deferred: list = []

    # ------------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.enter(self.name_id(ROOT))

    def end_op(self, root: int) -> None:
        self.leave(root)
        self.op_id = -1
        self.ops += 1
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named name."""
        i = self.enter(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.leave(i)

    def wrap(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                ret = fn(*args, **kwargs)
            finally:
                leave(i)
            if on_return is not None:
                on_return(args, ret)
            return ret

        return traced

    # ------------------------------------------------------------- counts

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def tally(self, name: str, read) -> None:
        """Add read() to a count; if what it reads is gone, mark it absent."""
        try:
            k = read()
        except (AttributeError, KeyError, TypeError):
            self.absent.add(name)
            return
        self.count(name, k)

    def defer(self, fn) -> None:
        """Run fn when the current op ends, outside its spans."""
        self._deferred.append(fn)

    # ------------------------------------------------------------- hooks

    def mark(self, name: str, found: bool) -> bool:
        (self.present if found else self.absent).add(name)
        return found

    def replace(self, obj, attr: str, new) -> None:
        """Set obj.attr to new until unpatch()."""
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch(self, obj, attr: str, name: str, on_return=None, restore=True) -> bool:
        """Replace obj.attr by a traced wrapper; False if obj has no attr."""
        original = getattr(obj, attr, None)
        if not self.mark(name, original is not None):
            return False
        if restore:
            self.replace(obj, attr, self.wrap(original, name, on_return))
        else:
            setattr(obj, attr, self.wrap(original, name, on_return))
        return True

    def unpatch(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def is_absent(self, name: str) -> bool:
        """A hook never found where it was looked for."""
        return name in self.absent and name not in self.present

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        start, end, parent = self.start, self.end, self.parent
        children = array("d", bytes(8 * len(start)))
        for i, p in enumerate(parent):
            if p >= 0:
                children[p] += end[i] - start[i]
        out: dict[str, float] = {}
        names = self.names
        for i, nid in enumerate(self.name):
            key = names[nid]
            out[key] = out.get(key, 0.0) + (end[i] - start[i]) - children[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name:
            key = self.names[nid]
            out[key] = out.get(key, 0) + 1
        return out

    def write(self, path) -> int:
        """Write every span as a gzip'd TSV line; returns the span count."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}"
                         f"\t{self.start[i]!r}\t{self.end[i]!r}\n")
        return len(self.start)
