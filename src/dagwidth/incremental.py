"""Incremental minimum path cover by topological insertion.

Vertices enter in topological order. The solver keeps a minimum flow of the
reduction of a transitively sparsified prefix graph, plus an integer level
per network vertex. A new vertex first has its in-edges sparsified to at
most the current flow size, then a single decrementing path is searched in
the residual, layer by layer from the highest level downward. Visited
vertices sink to the smallest visited level l, the new split gets levels
(l, l+1), and the demand of the l-th layered cut grows by one; when that
demand ties the cut below, the two layers merge.

Three structural facts drive everything and are checked by the debug
auditor after every insertion:

  A. residual edges never increase the level, so every network edge is
     level-monotone and an edge with slack keeps both ends on one level;
  B. positive sink edges carry one unit and sit above their in-vertex,
     positive source edges enter level 0;
  C. layered-cut demands strictly decrease with the level.

The sparsifier asks for "id of some cover path containing u". The solver
answers from an explicit flow decomposition: the cover paths (`paths`) and
each vertex's path id (`path_of`). A found path changes the flow only on
its own edges, so `_k3_repair` splices the stored paths along it: suffixes
are exchanged at its decreased cross edges, a vertex gains an occurrence
at a reverse split step and loses one at a slack split step, and the
suffix left over joins the path that ended at the end vertex. The work is
proportional to the suffixes moved; only a lookup whose `path_of` hint
misses scans the stored paths, and then only their parts at levels >= l.
A failed search only adds a one-vertex path. The variant names "k2" and
"k3" both select this bookkeeping; "k2" is kept as a name for
compatibility.

The search runs on the codes alone. A vertex's kept in-edges are appended
in one go, so their ids form a contiguous range from `in_first[v]`, and
`in_codes[v]` lists the out-half codes of their tails in that order;
`out_pos[u]` lists the in-half codes of the heads of u's cross edges that
carry flow. A pop scans one of these lists and keeps one int per code it
enqueues, the code it came from. A level gets a queue only when a code
lands on it, and a heap of pending levels gives the highest next. Only the
found path is read back as edges: a step between the halves of one vertex
is its split edge, and a cross edge's id is found by scanning its head's
range for the tail's code, at most |f| entries.

Most insertions take a short route. The layered loop's first pop is the
first code of `in_codes[v]` on the highest level; when that is the out-half
of an end vertex u (its sink edge carries flow), the loop stops there with
a path of one reversed step, along v's new edge from u. `_search` checks
this before it builds any queue and returns what the loop would: that one
popped code, that step and u's out-half level. The flow update then gives
the edge its unit, and the splice appends v to the path that ends at u.
By A and B an end vertex's split carries one unit, so that is the only
path through u, the one `path_of[u]` names. On the benchmark's inputs
(seeds 101 and 2401) this covers 99.85% of `narrow` insertions and 90% of
`wide` ones.

`solve` has two routes through the same insertions. The step route calls
`insert_vertex` per vertex, which runs `_sparsify_in`, `_install`,
`_search` and `apply_updates` (with `_apply_flow_deltas` and `_k3_repair`)
as methods, so a caller can replace or wrap any of them, and the debug
auditor and the trace line run after each insertion. The kernel,
`_insert_all`, is one loop over the order with the state's lists bound to
locals: it checks the order and sparsifies v's in-edges in one pass,
installs them, and runs the one-pop route inline (the flow unit on v's new
edge, v's halves on levels l and l+1, the append to the path that ends at
u, the merge). Any other insertion goes to `_search` and `apply_updates`.
Both routes leave the same state, counters included. `solve` takes the
step route when debug or trace is on, or when any of those five methods
has been replaced on the instance, as a test or the benchmark's tracer
does, and the kernel otherwise.

A failed search stops above level 0. By B no end vertex's out-half lies
on level 0, and by A no residual edge leaves it, so no path ends there or
passes through it; v's own out-half is out of reach, with no kept edge
leaving it yet and one unit on its split. The search then fails with
minimum level 0 once every higher level is walked: each code it skipped
is already on level 0, where the update would sink it, so only the pops
and the traversal units charged for them fall. A found search never
reaches level 0, since its path ends above it.

Path maintenance runs on the pre-merge levels. Each level keeps a bucket
of its codes and a count of them. A vertex that sinks is appended to its
new bucket and leaves a stale entry in the old one; the charged region is
summed from the counts, so an insertion touches only what it moves. A
merge relabels the live entries of the buckets at levels >= l and drops
their stale ones on the way.

The final cover is a copy of the stored paths, checked to decompose the
flow exactly. No flow network or flow is built unless a result's
`network` or `flow` is read.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .dag import Dag, PathCover
from .errors import BadPathId, InvariantViolation, OrderViolation
from .flow import Flow, FlowNetwork, flow_from_cover
from .flow import decompose  # noqa: F401  the benchmark's flow.decompose hook targets this binding
from .sparsify import sparsify_vertex

K2 = "k2"
K3 = "k3"

@dataclass
class LevelAssignment:
    """Final levels of the split halves, the cut-demand table and max level."""

    level_in: list[int]
    level_out: list[int]
    cut_demand: list[int]
    max_level: int


class TraversalResult:
    """Outcome of one layered decrementing-path search.

    found tells whether a decrementing path exists; min_level is the
    smallest visited level (0 after a failed search). `_popped` lists the
    popped network vertex codes (v_in = 2v, v_out = 2v+1) in pop order,
    none of them on level 0: a failed search stops above it, where the
    codes it skips would stay anyway;
    `_last` is the path's last code before the sink (-1 if none), and
    `_steps` lists the path's edges from the new vertex's in-half to
    `_last` as (edge key, reversed) pairs, empty after a failed search.
    An edge key is a cross edge id, or -(u+1) for u's split edge. The
    search reads `_steps` back from its predecessor codes once it has
    found the path; a failed search builds none.
    """

    __slots__ = ("min_level", "_popped", "_steps", "_last")

    def __init__(self, min_level: int, popped: list[int], steps: list, last: int):
        self.min_level = min_level
        self._popped = popped
        self._steps = steps
        self._last = last

    @property
    def found(self) -> bool:
        return self._last >= 0

    def __repr__(self) -> str:
        return (f"TraversalResult(found={self.found}, "
                f"min_level={self.min_level}, visited={len(self._popped)})")


class _KeptEdges(NamedTuple):
    """Copies of a solver's kept edges, taken when its result is frozen."""

    n: int
    cross_tail: list[int]
    cross_head: list[int]


class SolveResult:
    """A finished solve: the cover, the final levels and the charge counters.

    `network` (the reduction of the sparsified DAG the solver kept) and
    `flow` (the final minimum flow on it) are built on first access from
    the kept edges copied when the result was frozen, so they describe
    that moment even if the solver state changes afterwards. The flow is
    the cover's own: the cover was checked to decompose it exactly.
    """

    def __init__(self, cover: PathCover, levels: LevelAssignment, charges: dict,
                 kept: _KeptEdges):
        self.cover = cover
        self.levels = levels
        self.charges = charges
        self._kept = kept

    @cached_property
    def network(self) -> FlowNetwork:
        from .dag import build_dag
        from .flow import reduce as _reduce

        k = self._kept
        return _reduce(build_dag(k.n, list(zip(k.cross_tail, k.cross_head))))

    @cached_property
    def flow(self) -> Flow:
        return flow_from_cover(self.network, self.cover)


class SolverState:
    """Incremental solver state; drive it with insert_vertex in topo order."""

    def __init__(self, dag: Dag, variant: str = K2, debug: bool = False,
                 trace: bool = False):
        if variant not in (K2, K3):
            raise ValueError(f"unknown variant {variant!r}")
        n = dag.n
        self.dag = dag
        self.debug = debug
        self.trace = trace
        self.n = n
        self.inserted = bytearray(n)
        self.count = 0
        # flow values per edge family
        self.split_f = [0] * n
        self.srcin_f = [0] * n
        self.outsink_f = [0] * n
        self.cross_tail: list[int] = []
        self.cross_head: list[int] = []
        self.cross_f: list[int] = []
        # v's kept in-edges are the ids in_first[v] + i, in_codes[v][i] the
        # out-half code of the i-th one's tail; out_pos[u] holds the in-half
        # codes of the heads of u's cross edges with flow
        self.in_first = [0] * n
        self.in_codes: list[list[int]] = [[] for _ in range(n)]
        self.out_pos: list[list[int]] = [[] for _ in range(n)]
        self.f_size = 0
        # levels: network vertex code x (v_in = 2v, v_out = 2v+1) -> level.
        # Bucket j holds every inserted code at level j, live when
        # lv[x] == j, plus stale entries of codes that sank below j, which
        # only a merge drops. size[j] counts the inserted codes at level j.
        self.lv = [0] * (2 * n)
        self.buckets: list[list[int]] = [[]]
        self.size = [0]
        self.cut_demand: list[int] = []
        # traversal scratch: a code was enqueued in this search when its
        # enq_epoch is the current epoch, and then pred holds the code it
        # was enqueued from
        self.enq_epoch = [0] * (2 * n)
        self.epoch = 0
        self.pred = [0] * (2 * n)
        # cover bookkeeping: the flow decomposition and each vertex's path id
        self.paths: list[list[int]] = []
        self.path_of = [0] * n
        # instrumentation
        self.charge_units = 0
        self.sparsify_units = 0
        self.repair_units = 0
        self.merges = 0
        self.last_merge = False
        # debug auditor state
        self._anc = [0] * n if debug else None
        self._premerge_out_levels: dict[int, int] = {}
        self._trace_out = sys.stderr

    # ------------------------------------------------------------------ api

    @property
    def max_level(self) -> int:
        return len(self.cut_demand)

    def insert_vertex(self, v: int, in_neighbors: list[int]) -> TraversalResult:
        """Sparsify v's in-edges, install the tentative flow, search, update."""
        n = self.n
        inserted = self.inserted
        if not (0 <= v < n):
            raise OrderViolation(f"vertex {v} out of range")
        if inserted[v]:
            raise OrderViolation(f"vertex {v} inserted twice")
        for u in in_neighbors:
            if not (0 <= u < n and inserted[u]):
                problem = "not yet inserted" if 0 <= u < n else "out of range"
                raise OrderViolation(f"in-neighbor {u} of {v} {problem}")
        prev_out_levels = self._end_out_levels() if self.debug else None

        survivors = self._sparsify_in(v, in_neighbors)
        self._install(v, survivors)
        result = self._search(v)
        self.apply_updates(result, v)

        if self.debug:
            self._audit(v, result, prev_out_levels)
        if self.trace:
            print(f"i={self.count - 1} found={result.found} "
                  f"l={result.min_level} |f|={self.f_size} merge={self.last_merge}",
                  file=self._trace_out)
        return result

    def _insert_all(self, order, in_adj) -> None:
        """Insert each v of order, with in-neighbours in_adj[v], in one loop.

        Runs what `insert_vertex` runs, with the same checks, errors and
        counters, but without its per-insertion method calls: the order
        checks and the in-edge sparsifier share one pass over the
        in-neighbours, and a one-pop insertion's flow, level, splice and
        merge updates are inline. Any other insertion goes to `_search`
        and `apply_updates`, and a one-pop insertion whose `path_of` hint
        names a path that does not end at u to `_k3_repair`; the counters
        those share are handed over to self around the call.
        """
        n = self.n
        inserted = self.inserted
        path_of = self.path_of
        topo_pos = self.dag.topo_pos
        lv = self.lv
        split_f, srcin_f, outsink_f = self.split_f, self.srcin_f, self.outsink_f
        cross_tail, cross_head, cross_f = self.cross_tail, self.cross_head, self.cross_f
        in_first, in_codes, out_pos = self.in_first, self.in_codes, self.out_pos
        buckets, size, cut_demand = self.buckets, self.size, self.cut_demand
        paths = self.paths
        count, f_size, merged = self.count, self.f_size, self.last_merge
        charge, sparsify, repair, merges = (self.charge_units, self.sparsify_units,
                                            self.repair_units, self.merges)
        try:
            for v in order:
                nbrs = in_adj[v]
                if not (0 <= v < n):
                    raise OrderViolation(f"vertex {v} out of range")
                if inserted[v]:
                    raise OrderViolation(f"vertex {v} inserted twice")
                # per path id, the topologically last in-neighbour survives
                best = {}
                for u in nbrs:
                    if not (0 <= u < n and inserted[u]):
                        problem = "not yet inserted" if 0 <= u < n else "out of range"
                        raise OrderViolation(f"in-neighbor {u} of {v} {problem}")
                    p = path_of[u]
                    w = best.get(p)
                    if w is None or topo_pos[u] > topo_pos[w]:
                        best[p] = u
                sparsify += len(nbrs) + f_size
                ids = sorted(best)
                if ids and (ids[0] < 1 or ids[-1] > f_size):
                    bad = ids[0] if ids[0] < 1 else ids[-1]
                    raise BadPathId(f"path id {bad} outside [1, {f_size}]")

                # install the kept edges in path-id order; y is the first
                # code on the highest level, e its edge
                in_first[v] = len(cross_f)
                codes = in_codes[v]
                top = -1
                for p in ids:
                    u = best[p]
                    x = 2 * u + 1
                    cross_tail.append(u)
                    cross_head.append(v)
                    cross_f.append(0)
                    codes.append(x)
                    if lv[x] > top:
                        top = lv[x]
                        y = x
                        e = len(cross_f) - 1
                split_f[v] = 1
                outsink_f[v] = 1
                inserted[v] = 1
                count += 1

                if top < 0 or outsink_f[y >> 1] <= 0:
                    srcin_f[v] = 1
                    self.f_size, self.charge_units = f_size + 1, charge
                    self.repair_units, self.merges = repair, merges
                    try:
                        self.apply_updates(self._search(v), v)
                    finally:
                        f_size, charge = self.f_size, self.charge_units
                        repair, merges = self.repair_units, self.merges
                        merged = self.last_merge
                    continue

                # one pop: v's new edge from the end vertex a takes v's
                # source unit, so |f| and v's source edge stay as they were
                a = y >> 1
                l = top
                outsink_f[a] -= 1
                cross_f[e] = 1
                out_pos[a].append(2 * v)
                charge += f_size + 3 + sum(size[l:])
                lv[2 * v] = l
                buckets[l].append(2 * v)
                size[l] += 1
                if l == len(cut_demand):
                    buckets.append([])
                    size.append(0)
                    cut_demand.append(0)
                lv[2 * v + 1] = l + 1
                buckets[l + 1].append(2 * v + 1)
                size[l + 1] += 1
                cut_demand[l] += 1

                pid = path_of[a]
                path = paths[pid - 1]
                if path[-1] == a:
                    path.append(v)
                    path_of[v] = pid
                    repair += 2
                else:
                    self.repair_units = repair
                    try:
                        self._k3_repair(TraversalResult(l, [y], [(e, True)], y), v, l)
                    finally:
                        repair = self.repair_units

                merged = l >= 1 and cut_demand[l] == cut_demand[l - 1]
                if merged:  # as in apply_updates; a shared method measured slower
                    merges += 1
                    for j in range(l, len(buckets)):
                        live = []
                        for x in buckets[j]:
                            if lv[x] == j:
                                lv[x] = j - 1
                                live.append(x)
                        buckets[j] = live
                    buckets[l - 1] += buckets.pop(l)
                    size[l - 1] += size.pop(l)
                    del cut_demand[l - 1]
        finally:
            self.count, self.f_size, self.last_merge = count, f_size, merged
            self.charge_units, self.sparsify_units = charge, sparsify
            self.repair_units, self.merges = repair, merges

    def charge_counters(self) -> dict:
        """Instrumentation snapshot: total charged work and merges."""
        return {
            "total_units": self.charge_units + self.sparsify_units,
            "traversal_units": self.charge_units,
            "sparsify_units": self.sparsify_units,
            "repair_units": self.repair_units,
            "merges": self.merges,
        }

    def result(self) -> SolveResult:
        """Freeze the final cover, level assignment and charge counters.

        The cover is a copy of the stored paths, listed by first vertex,
        ties in path-id order. Every vertex must carry split flow (its
        demand), and the paths must decompose the flow exactly
        (`_check_paths`). The flow network and the flow itself are built
        only if the result's `network` or `flow` is read.
        """
        if 0 in self.split_f:
            raise InvariantViolation(
                f"vertex {self.split_f.index(0)} carries no split flow")
        self._check_paths()
        cover = PathCover(sorted(map(list, self.paths), key=itemgetter(0)))
        levels = LevelAssignment(self.lv[0::2], self.lv[1::2],
                                 list(self.cut_demand), self.max_level)
        kept = _KeptEdges(self.n, list(self.cross_tail), list(self.cross_head))
        return SolveResult(cover, levels, self.charge_counters(), kept)

    def _check_paths(self) -> None:
        """Raise InvariantViolation unless the stored paths decompose the flow.

        One path per flow unit, each vertex on as many paths as its split
        flow, heads and tails where the source and sink edges carry flow,
        and every step of a path along a kept cross edge, as many times as
        that edge's flow. Paths are walks in the network, so this implies
        conservation at every vertex: all that a flow check without cuts
        verifies, in O(n + total path length + kept edges).
        """
        n = self.n
        paths = self.paths
        if len(paths) != self.f_size:
            raise InvariantViolation(
                f"{len(paths)} stored paths for a flow of size {self.f_size}")
        split = [0] * n
        heads = [0] * n
        tails = [0] * n
        steps: dict[int, int] = {}
        for path in paths:
            heads[path[0]] += 1
            tails[path[-1]] += 1
            for u in path:
                split[u] += 1
            for u, w in zip(path, path[1:]):
                key = u * n + w
                steps[key] = steps.get(key, 0) + 1
        if split != self.split_f:
            raise InvariantViolation("stored paths do not match the split flow")
        if heads != self.srcin_f:
            raise InvariantViolation("stored paths do not start on the source-edge flow")
        if tails != self.outsink_f:
            raise InvariantViolation("stored paths do not end on the sink-edge flow")
        for u, w, units in zip(self.cross_tail, self.cross_head, self.cross_f):
            if steps.pop(u * n + w, 0) != units:
                raise InvariantViolation(f"stored paths do not match the flow on ({u}, {w})")
        if steps:
            u, w = divmod(next(iter(steps)), n)
            raise InvariantViolation(f"stored path steps along ({u}, {w}), not a kept edge")

    # ------------------------------------------------------- insertion steps

    def _sparsify_in(self, v: int, in_neighbors: list[int]) -> list[int]:
        t = self.f_size
        self.sparsify_units += len(in_neighbors) + t
        return sparsify_vertex(in_neighbors, self.path_of, self.dag.topo_pos, t)

    def _install(self, v: int, survivors: list[int]) -> None:
        self.in_first[v] = len(self.cross_f)
        codes = self.in_codes[v]
        for u in survivors:
            self.cross_tail.append(u)
            self.cross_head.append(v)
            self.cross_f.append(0)
            codes.append(2 * u + 1)
        self.split_f[v] = 1
        self.srcin_f[v] = 1
        self.outsink_f[v] = 1
        self.inserted[v] = 1
        self.count += 1
        self.f_size += 1  # tentative; drops back if a decrementing path exists

    def _search(self, v: int) -> TraversalResult:
        """Search for a decrementing path, one BFS per layer, highest first.

        Fails without walking level 0: no path ends there, and no residual
        edge leaves it (see the module docstring).
        """
        lv = self.lv
        in_codes = self.in_codes
        outsink_f = self.outsink_f
        codes = in_codes[v]
        if codes:
            # the layered loop pops the first code on the highest level
            # first; when that is an end vertex's out-half, v extends the
            # stored path that ends there, one reversed edge from v's in-half
            y = codes[0] if len(codes) == 1 else max(codes, key=lv.__getitem__)
            if outsink_f[y >> 1] > 0:
                return TraversalResult(lv[y], [y],
                                       [(self.in_first[v] + codes.index(y), True)], y)
        self.epoch += 1
        epoch = self.epoch
        enq = self.enq_epoch
        pred = self.pred
        out_pos = self.out_pos
        split_f = self.split_f
        popped: list[int] = []
        queues: dict[int, list[int]] = {}
        pending: list[int] = []  # negated levels whose queue is not walked yet
        start = 2 * v

        for y in codes:  # reverse cross edges into v, distinct tails
            enq[y] = epoch
            pred[y] = start
            j = lv[y]
            q = queues.get(j)
            if q is None:
                queues[j] = [y]
                heappush(pending, -j)
            else:
                q.append(y)

        last = -1
        while pending and last < 0:
            cur = -heappop(pending)
            if cur == 0:  # no path ends on level 0, and from there none leaves it
                break
            q = queues[cur]
            for x in q:  # residual edges never raise the level: q grows as walked
                popped.append(x)
                u = x >> 1
                if x & 1:  # u_out: reverse split, direct cross edges with flow
                    if outsink_f[u] > 0:
                        last = x
                        break
                    ys = [x - 1, *out_pos[u]]
                elif split_f[u] > 1:  # u_in: reverse cross edges, slack split
                    ys = [*in_codes[u], x + 1]
                else:
                    ys = in_codes[u]
                for y in ys:
                    if enq[y] != epoch:
                        enq[y] = epoch
                        pred[y] = x
                        j = lv[y]
                        if j == cur:
                            q.append(y)
                        elif j in queues:
                            queues[j].append(y)
                        else:
                            queues[j] = [y]
                            heappush(pending, -j)

        if last < 0:
            return TraversalResult(0, popped, [], -1)
        # read the steps back along the predecessors: a split step keeps the
        # vertex, a step from an out-half is a direct cross edge, any other
        # a reverse one; a cross edge's id is its tail's slot in the head's range
        in_first = self.in_first
        steps = []
        y = last
        while y != start:
            x = pred[y]
            if x >> 1 == y >> 1:
                steps.append((-(x >> 1) - 1, x & 1 == 1))
            elif x & 1:
                w = y >> 1
                steps.append((in_first[w] + in_codes[w].index(x), False))
            else:
                w = x >> 1
                steps.append((in_first[w] + in_codes[w].index(y), True))
            y = x
        steps.reverse()
        return TraversalResult(lv[last], popped, steps, last)

    def apply_updates(self, result: TraversalResult, v: int) -> None:
        """Flow, level, cut-demand and cover bookkeeping updates."""
        lv = self.lv
        found = result._last >= 0
        l = result.min_level
        popped = result._popped
        if found:
            self._apply_flow_deltas(result, v, result._last >> 1)

        # charged region: everything at level l or above, pre-merge. Sinking
        # keeps it (every popped code is at l or above), v adds its two codes
        buckets = self.buckets
        size = self.size
        cut_demand = self.cut_demand
        region = sum(size[l:]) + 2
        self.charge_units += (self.f_size + 1) * len(popped) + region

        # level updates: visited vertices and the new split sink to (l, l+1);
        # a vertex that sinks leaves a stale entry in its old bucket
        bucket = buckets[l]
        before = len(bucket)
        for x in popped:
            j = lv[x]
            if j != l:
                size[j] -= 1
                lv[x] = l
                bucket.append(x)
        lv[2 * v] = l
        bucket.append(2 * v)
        size[l] += len(bucket) - before
        if l == len(cut_demand):
            buckets.append([])
            size.append(0)
            cut_demand.append(0)
        lv[2 * v + 1] = l + 1
        buckets[l + 1].append(2 * v + 1)
        size[l + 1] += 1
        cut_demand[l] += 1

        if self.debug:
            self._premerge_out_levels = self._end_out_levels()

        if found:
            self._k3_repair(result, v, l)
        else:
            self.paths.append([v])
            self.path_of[v] = len(self.paths)

        # merge of layer l restores strictly decreasing cut demands
        self.last_merge = False
        if l >= 1 and cut_demand[l] == cut_demand[l - 1]:
            self.last_merge = True
            self.merges += 1
            # Levels l and up shift down by one. Only their live entries
            # move, and the stale ones are dropped: a stale entry sits above
            # its vertex's level, so the shift could make the two match.
            # Below l no level moves, and stale entries there stay stale.
            for j in range(l, len(buckets)):
                live = []
                for x in buckets[j]:
                    if lv[x] == j:
                        lv[x] = j - 1
                        live.append(x)
                buckets[j] = live
            buckets[l - 1] += buckets.pop(l)
            size[l - 1] += size.pop(l)
            del cut_demand[l - 1]

    def _apply_flow_deltas(self, result: TraversalResult, v: int, a: int) -> None:
        self.f_size -= 1
        self.srcin_f[v] -= 1
        self.outsink_f[a] -= 1
        steps = result._steps
        if len(steps) == 1:
            # one reversed step: v's new edge from a gains its first unit
            self.cross_f[steps[0][0]] = 1
            self.out_pos[a].append(2 * v)
            return
        for ekey, is_rev in steps:
            delta = 1 if is_rev else -1
            if ekey < 0:
                self.split_f[-ekey - 1] += delta
            else:
                tail = self.cross_tail[ekey]
                before = self.cross_f[ekey]
                self.cross_f[ekey] = before + delta
                if before == 0 and delta == 1:
                    self.out_pos[tail].append(2 * self.cross_head[ekey])
                elif before == 1 and delta == -1:
                    self.out_pos[tail].remove(2 * self.cross_head[ekey])

    # ------------------------------------------------------ cover bookkeeping

    def _k3_repair(self, result: TraversalResult, v: int, l: int) -> None:
        """Splice the stored paths along the found decrementing path.

        The flow changed only on the path's edges, so the paths follow it
        with suffix exchanges. A dangling suffix D, first `[v]` (its source
        unit is gone), travels along the path from v's in-half:

          - a decreased cross edge (u, w) cuts the stored path that steps
            u -> w after u, appends D there and carries the cut-off suffix
            as the new D;
          - a reverse split step (+1 on u's split) prepends u to D;
          - a slack split step (-1 on u's split) drops D's head u; if the
            next decreased edge is D's own former first step, that drop
            already took it away;
          - at the end vertex, D is appended to the path that ends there.

        Increased cross edges need no move: each joins the vertex just
        left to D's head. Path ids never change, and only the vertices of
        an appended D, plus a dropped head, get a new `path_of`. Runs only
        after a found path and before the merge, so l >= 1 and the stored
        paths stay level-monotone: every step the splice looks for lies in
        their parts at levels >= l, which bound a lookup whose `path_of`
        hint misses. D is kept reversed, its head last.
        """
        paths = self.paths
        path_of = self.path_of
        steps = result._steps
        if len(steps) == 1:
            # one reversed step: v joins the path that ends at a. An end
            # vertex lies on one path only; if path_of disagrees, the
            # general splice below looks it up and raises if none ends at a
            a = result._last >> 1
            pid = path_of[a]
            path = paths[pid - 1]
            if path[-1] == a:
                path.append(v)
                path_of[v] = pid
                self.repair_units += 2  # a scanned, v appended
                return
        dangling = [v]
        dropped = -1
        units = 0
        for ekey, is_rev in steps:
            if ekey < 0:
                u = -ekey - 1
                if is_rev:
                    dangling.append(u)
                    continue
                if dangling[-1] != u:
                    raise InvariantViolation(f"slack split of {u} is not the dangling head")
                dangling.pop()
                dropped = u
                pid, _, scanned = self._find(u, -1, l)
                path_of[u] = pid
                units += scanned
                continue
            if is_rev:
                continue
            u, w = self.cross_tail[ekey], self.cross_head[ekey]
            if u == dropped and dangling[-1] == w:
                continue
            pid, i, scanned = self._find(u, w, l)
            path = paths[pid - 1]
            cut = path[:i:-1]
            del path[i + 1:]
            path.extend(reversed(dangling))
            for x in dangling:
                path_of[x] = pid
            units += scanned + len(cut) + len(dangling)
            dangling = cut
        a = result._last >> 1
        pid, i, scanned = self._find(a, -1, l)
        path = paths[pid - 1]
        if i != len(path) - 1:
            raise InvariantViolation(f"no stored path ends at {a}")
        path.extend(reversed(dangling))
        for x in dangling:
            path_of[x] = pid
        self.repair_units += units + scanned + len(dangling)

    def _find(self, u: int, w: int, l: int) -> tuple[int, int, int]:
        """A stored path holding u, followed by w unless w < 0.

        Returns (path id, index of u, entries scanned). Tries the paths
        `path_of[u]` and `path_of[w]` first, then every path; each path is
        scanned back from its end through its part at levels >= l only.
        """
        lv = self.lv
        paths = self.paths
        hints = (self.path_of[u],)
        if w >= 0 and self.path_of[w] != hints[0]:
            hints += (self.path_of[w],)
        scanned = 0
        for pids in (hints, range(1, len(paths) + 1)):
            for pid in pids:
                path = paths[pid - 1]
                j = len(path) - 1
                while j >= 0 and lv[2 * path[j] + 1] >= l:
                    scanned += 1
                    if path[j] == u:
                        if w < 0 or (j + 1 < len(path) and path[j + 1] == w):
                            return pid, j, scanned
                        break
                    j -= 1
        if w < 0:
            raise InvariantViolation(f"no stored path holds {u}")
        raise InvariantViolation(f"no stored path steps along ({u}, {w})")

    # The benchmark's incremental.walk and incremental.k2_links_s hooks
    # target these three names. Nothing calls them: the splice above needs
    # no region walks, and both variant names run it.
    def _walk_back(self, *args) -> None:
        pass

    def maintain_backlinks(self, *args) -> None:
        pass

    def _repair_merged_anchors(self, *args) -> None:
        pass

    # ----------------------------------------------------------------- audit

    def _end_out_levels(self) -> dict[int, int]:
        """The end vertices (sink edge with flow), each to its out-half's level."""
        lv = self.lv
        return {u: lv[2 * u + 1] for u, f in enumerate(self.outsink_f) if f > 0}

    def _audit(self, v: int, result: TraversalResult, prev_out_levels):
        lv = self.lv
        n = self.n
        # ancestor masks over the sparsified prefix, for reachability checks
        anc = self._anc
        mask = 1 << v
        for y in self.in_codes[v]:
            mask |= anc[y >> 1]
        anc[v] = mask

        inserted = [u for u in range(n) if self.inserted[u]]
        # Invariant A over every network edge (via its always-present reverse)
        for u in inserted:
            if lv[2 * u] > lv[2 * u + 1]:
                raise InvariantViolation(f"split edge of {u} decreases level")
            if self.split_f[u] > 1 and lv[2 * u] != lv[2 * u + 1]:
                raise InvariantViolation(f"slack split edge of {u} crosses levels")
        for e in range(len(self.cross_f)):
            tu, hv = 2 * self.cross_tail[e] + 1, 2 * self.cross_head[e]
            if lv[tu] > lv[hv]:
                raise InvariantViolation(f"cross edge {e} decreases level")
            if self.cross_f[e] > 0 and lv[tu] != lv[hv]:
                raise InvariantViolation(f"positive cross edge {e} crosses levels")
        # the search's adjacency: w's in-edge codes name the tails of the ids
        # from in_first[w], whose heads are w, and these ranges hold every
        # kept edge; out_pos[u] holds the heads of u's edges with flow
        ranged = 0
        for w in range(n):
            first, codes = self.in_first[w], self.in_codes[w]
            end = first + len(codes)
            if (codes != [2 * t + 1 for t in self.cross_tail[first:end]]
                    or self.cross_head[first:end] != [w] * len(codes)):
                raise InvariantViolation(f"in-edge codes of {w} do not match its kept edges")
            ranged += len(codes)
        if ranged != len(self.cross_f):
            raise InvariantViolation("in-edge ranges do not hold every kept edge")
        flowing: list[list[int]] = [[] for _ in range(n)]
        for e, f in enumerate(self.cross_f):
            if f > 0:
                flowing[self.cross_tail[e]].append(2 * self.cross_head[e])
        for u in range(n):
            if sorted(self.out_pos[u]) != sorted(flowing[u]):
                raise InvariantViolation(f"out-edge codes of {u} do not match its edges with flow")
        # Invariant B
        for u in inserted:
            if self.outsink_f[u] > 0:
                if self.outsink_f[u] != 1:
                    raise InvariantViolation(f"sink edge of {u} above one unit")
                if not lv[2 * u] < lv[2 * u + 1]:
                    raise InvariantViolation(f"end vertex {u} not an antichain vertex")
            if self.srcin_f[u] > 0 and lv[2 * u] != 0:
                raise InvariantViolation(f"source edge of {u} enters level {lv[2*u]}")
        # Invariant C plus cut-demand table consistency
        m = self.max_level
        for i in range(1, m):
            if not self.cut_demand[i - 1] > self.cut_demand[i]:
                raise InvariantViolation("cut demands not strictly decreasing")
        diff = [0] * (m + 1)
        for u in inserted:
            lo, hi = lv[2 * u], lv[2 * u + 1]
            if lo < hi:
                diff[lo] += 1
                diff[min(hi, m)] -= 1
        run = 0
        for i in range(m):
            run += diff[i]
            if run != self.cut_demand[i]:
                raise InvariantViolation(
                    f"cut demand table wrong at {i}: {self.cut_demand[i]} != {run}")
        if self.cut_demand and self.cut_demand[0] != self.f_size:
            raise InvariantViolation("first cut demand differs from flow size")
        top = max((max(lv[2 * u], lv[2 * u + 1]) for u in inserted), default=0)
        if inserted and top != m:
            raise InvariantViolation(f"max level {top} != cut table size {m}")
        # level sizes and buckets: every inserted code live once in its bucket
        at_level: list[list[int]] = [[] for _ in range(m + 1)]
        for x in range(2 * n):
            if self.inserted[x >> 1]:
                at_level[lv[x]].append(x)
        if len(self.size) != m + 1 or len(self.buckets) != m + 1:
            raise InvariantViolation("level size or bucket table has the wrong length")
        for j, members in enumerate(at_level):
            if self.size[j] != len(members):
                raise InvariantViolation(
                    f"size of level {j} wrong: {self.size[j]} != {len(members)}")
            if sorted(x for x in self.buckets[j] if lv[x] == j) != members:
                raise InvariantViolation(f"bucket {j} does not hold its level's codes once")
        # the end vertices gain v and lose the found path's last vertex;
        # the others keep their level, judged before the merge
        removed = {result._last >> 1} if result._last >= 0 else set()
        prev_end = prev_out_levels.keys()
        if self._premerge_out_levels.keys() != (prev_end | {v}) - removed:
            raise InvariantViolation("end vertex evolution mismatch")
        for u in prev_end - removed - {v}:
            if self._premerge_out_levels[u] != prev_out_levels[u]:
                raise InvariantViolation(f"end vertex {u} changed level")
        # layered antichains: pairwise unreachable, sizes match the demands
        for level in range(m):
            members = [u for u in inserted if lv[2 * u] <= level < lv[2 * u + 1]]
            if len(members) != self.cut_demand[level]:
                raise InvariantViolation(f"antichain size mismatch at level {level}")
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    x, y = (a, b) if self.dag.topo_pos[a] < self.dag.topo_pos[b] \
                        else (b, a)
                    if (anc[y] >> x) & 1:
                        raise InvariantViolation(
                            f"antichain vertices {x}, {y} are comparable")
        # the stored paths must decompose the flow, and path ids name them
        self._check_paths()
        for u in inserted:
            pid = self.path_of[u]
            if not (1 <= pid <= len(self.paths)) or u not in self.paths[pid - 1]:
                raise InvariantViolation(f"path id of {u} is wrong")


# Replacing one of these on a SolverState instance sends solve() through
# insert_vertex, where the replacement sees every insertion.
_STEP_HOOKS = frozenset(("_sparsify_in", "_search", "apply_updates",
                         "_apply_flow_deltas", "_k3_repair"))


def solve(dag: Dag, variant: str = K2, debug: bool | None = None,
          trace: bool | None = None) -> SolveResult:
    """Compute an MPC of dag by inserting vertices in topological order.

    variant is "k2" or "k3"; both run the same bookkeeping, an explicit flow
    decomposition, and return the same cover ("k2" is kept as a name for
    compatibility). debug/trace default to the DAGWIDTH_DEBUG environment
    variable and enable the per-insertion invariant auditor and trace lines.

    The insertions run in the kernel, `SolverState._insert_all`, unless
    debug or trace is on or one of `_sparsify_in`, `_search`,
    `apply_updates`, `_apply_flow_deltas` and `_k3_repair` has been
    replaced on the state (a SolverState factory patched into this module
    can do that); then each goes through `insert_vertex`, where the audit,
    the trace line and the replacement see every one. Both routes give the
    same result, charge counters included.
    """
    env = os.environ.get("DAGWIDTH_DEBUG") == "1"
    state = SolverState(dag, variant,
                        debug=env if debug is None else debug,
                        trace=env if trace is None else trace)
    if state.debug or state.trace or not _STEP_HOOKS.isdisjoint(vars(state)):
        for v in dag.topo:
            state.insert_vertex(v, dag.in_adj[v])
    else:
        state._insert_all(dag.topo, dag.in_adj)
    return state.result()
