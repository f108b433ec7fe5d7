"""Rewire a path cover until its distinct edges number less than 2|V|.

The support lives on plain ints. A directed edge (u, w) is the key u·n + w,
which orders keys as the pairs would order; a vertex id outside [0, n) is
rejected before it is encoded, since its key would alias a real edge. Cover
paths are singly linked chains of occurrence nodes held in two parallel
lists: node x lies on vertex vert[x], and nxt[x] is the next node on its
path, -1 for none. Every distinct edge keeps an insertion-ordered registry
of the tail nodes realizing it, so a path containing a given edge is found
in O(1) and splicing reconnects chains with O(1) index work per mismatch.
Splicing only walks forward from a node a registry names, so no node needs
a backward link.

Vertices of degree at most two in the support are blue, the rest red; an
undirected cycle of red edges lets paths be spliced along one side of the
cycle, draining multiplicity from that side until an edge disappears. The
sum of squared multiplicities grows by at least the cycle length per pass,
which bounds the total splicing work. When no red cycle remains, the red
edges form a forest and the support is provably below 2|V| edges.

The cycle search is amortised over the whole thinning. Splicing moves
occurrences between nodes in place and never creates a support edge, so
between two searches the red graph only loses edges and vertices only turn
from red to blue, and the set of processed edges only grows. The red
adjacency is therefore built and sorted once, and the depth-first search
is one generator that keeps its stack, cursors and visited set as locals
from one cycle to the next: after each cycle it cuts the stack back to the
first tree edge that vanished or the first vertex that turned blue, then
resumes. A restart from scratch would replay exactly the surviving stack
prefix, so both find the same cycles, while each adjacency entry is
scanned a bounded number of times per cut.

`thin` validates the cover it is given, unless it is a cover `solve`
returned that still carries its certificate (`oracle.solver_certificate`),
which proves it valid; the thinned cover is the same either way.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby

from .dag import Dag, PathCover, build_dag
from .errors import EdgeUncovered, NotACover, NotARedCycle, OutOfRange
from .oracle import solver_certificate
from .oracle import validate_cover  # the benchmark's oracle.validate hook targets this binding


@dataclass
class RedCycle:
    """A cycle of red support edges, as the closed vertex sequence."""

    vertices: list[int]


class SupportGraph:
    """Multiplicity-weighted support of a path cover, on int codes.

    Edge (u, w) is the key u·n + w. Occurrence node x lies on vertex
    vert[x] and links forward to nxt[x] on its path (-1: none); heads
    holds each path's first node. occ maps each edge key to the tail nodes
    realizing it, in insertion order. degree[v] counts the distinct edges at
    v; a vertex is red iff its degree exceeds two. processed holds the keys
    the cycle search has exhausted or deleted, _vanished the keys emptied
    since the search last ran, and _cycles is the search itself, made at
    the first find_red_cycle call. _phi is the running sum of squared
    multiplicities. Nodes that a pass detaches keep their slots, unreachable
    from heads.
    """

    def __init__(self, cover: PathCover, n: int):
        self.n = n
        paths = [p for p in cover.paths if p]
        vert = [v for p in paths for v in p]
        if vert and (min(vert) < 0 or max(vert) >= n):
            raise OutOfRange(f"a cover vertex lies outside [0, {n})")
        nxt = list(range(1, len(vert) + 1))
        heads = []
        x = 0
        for p in paths:
            heads.append(x)
            x += len(p)
            nxt[x - 1] = -1
        self.vert = vert
        self.nxt = nxt
        self.heads = heads
        # the only place support edges are created
        occ: dict[int, dict[int, None]] = {}
        degree = [0] * n
        for x, p in zip(heads, paths):
            for u, w in zip(p, p[1:]):
                key = u * n + w
                entry = occ.get(key)
                if entry is None:
                    occ[key] = {x: None}
                    degree[u] += 1
                    degree[w] += 1
                else:
                    entry[x] = None
                x += 1
        self.occ = occ
        self.degree = degree
        self._phi = sum([len(entry) ** 2 for entry in occ.values()])
        self.processed: set[int] = set()
        self._cycles: Iterator[RedCycle] | None = None
        self._vanished: list[int] = []

    def mu(self, edge: tuple[int, int]) -> int:
        u, w = edge
        n = self.n
        if not (0 <= u < n and 0 <= w < n):
            return 0
        return len(self.occ.get(u * n + w, ()))

    def is_red(self, v: int) -> bool:
        return 0 <= v < self.n and self.degree[v] > 2

    def phi(self) -> int:
        return self._phi

    def to_cover(self) -> PathCover:
        vert, nxt = self.vert, self.nxt
        paths = []
        for x in self.heads:
            path = []
            while x != -1:
                path.append(vert[x])
                x = nxt[x]
            paths.append(path)
        return PathCover(paths)

    # -------------------------------------------------------------- splicing

    def splice_chain(self, d: list[int]) -> list[int]:
        """Reconnect paths so d is contiguous on one; returns its node chain.

        Per-edge multiplicities are preserved: mismatches only exchange the
        suffixes of two chains through O(1) link swaps.
        """
        if len(d) < 2:
            raise EdgeUncovered("splice target must be a proper path")
        n = self.n
        if min(d) < 0 or max(d) >= n:
            raise EdgeUncovered(f"splice target {d} leaves the vertices [0, {n})")
        occ = self.occ
        vert, nxt = self.vert, self.nxt
        entry = occ.get(d[0] * n + d[1])
        if not entry:
            raise EdgeUncovered(f"edge {(d[0], d[1])} lies on no cover path")
        x = next(iter(entry))
        chain = [x, nxt[x]]
        x = chain[-1]
        for u, v in zip(d[1:], d[2:]):
            y = nxt[x]
            if y != -1 and vert[y] == v:
                chain.append(y)
                x = y
                continue
            entry = occ.get(u * n + v)
            if not entry:
                raise EdgeUncovered(f"edge {(u, v)} lies on no cover path")
            b_u = next(iter(entry))
            b_v = nxt[b_u]
            # swap the suffix after x with the suffix starting at b_v, and
            # hand the two edge occurrences over between x and b_u
            nxt[x] = b_v
            nxt[b_u] = y
            del entry[b_u]
            entry[x] = None
            if y != -1:
                moved = occ[u * n + vert[y]]
                del moved[x]
                moved[b_u] = None
            chain.append(b_v)
            x = b_v
        return chain

    # ------------------------------------------------------- cycle machinery

    def find_red_cycle(self) -> RedCycle | None:
        """Depth-first search over red edges for a cycle of red vertices.

        Roots are taken in increasing id order among the vertices that had a
        red edge at the first call; adjacency follows edge key order with
        processed and no longer red edges skipped. Edges are marked
        processed when backtracked over. The search resumes where the last
        call stopped: a detected cycle is returned with the cursor left on
        its closing edge and without processing its edges, so a repeat call
        with no elimination in between returns the same cycle.
        """
        if self._cycles is None:
            self._cycles = self._search_cycles()
        return next(self._cycles, None)

    def _search_cycles(self) -> Iterator[RedCycle]:
        """The one depth-first search behind find_red_cycle. The sorted
        adjacency is that of the red graph at the first call; later calls
        only ever see a subgraph of it. After each cycle it pops the stack
        down to below its first vertex whose tree edge vanished or which
        turned blue in the meantime. Only endpoints of vanished edges lose
        degree, so the vanished edges name every candidate. Cut vertices
        become unvisited, as in a fresh search."""
        n = self.n
        processed = self.processed
        degree = self.degree
        vanished = self._vanished
        adj: dict[int, list[tuple[int, int]]] = {}
        for key in self.occ:
            if key in processed:
                continue
            u, w = divmod(key, n)
            if degree[u] > 2 and degree[w] > 2:
                adj.setdefault(u, []).append((w, key))
                adj.setdefault(w, []).append((u, key))
        for entries in adj.values():
            entries.sort()
        vanished.clear()
        stack: list[int] = []
        pos = [-1] * n          # stack index, -1 when off the stack
        cursor = [0] * n
        parent_edge = [-1] * n  # tree edge key, -1 for a root
        visited = bytearray(n)
        for root in sorted(adj):
            if visited[root] or degree[root] <= 2:
                continue
            visited[root] = 1
            stack.append(root)
            pos[root] = 0
            parent_edge[root] = -1
            cursor[root] = 0
            while stack:
                v = stack[-1]
                entries = adj[v]
                pe = parent_edge[v]
                i = cursor[v]
                while i < len(entries):
                    w, key = entries[i]
                    if key in processed or key == pe or degree[w] <= 2:
                        i += 1
                    elif pos[w] >= 0:
                        cursor[v] = i
                        yield RedCycle(stack[pos[w]:])
                        cut = len(stack)
                        for gone in vanished:
                            for x in divmod(gone, n):
                                p = pos[x]
                                if 0 <= p < cut and (parent_edge[x] == gone
                                                     or degree[x] <= 2):
                                    cut = p
                        vanished.clear()
                        for x in stack[cut:]:
                            pos[x] = -1
                            visited[x] = 0
                        del stack[cut:]
                        break
                    elif visited[w]:
                        i += 1
                    else:
                        cursor[v] = i + 1
                        visited[w] = 1
                        pos[w] = len(stack)
                        stack.append(w)
                        parent_edge[w] = key
                        cursor[w] = 0
                        break
                else:
                    stack.pop()
                    pos[v] = -1
                    if pe >= 0:
                        processed.add(pe)

    def eliminate_red_cycle(self, cycle: RedCycle, record: list | None = None):
        """Splice along one side of the cycle until a support edge vanishes.

        The side with the smaller multiplicity sum is drained (ties drain the
        backward side); each pass raises the kept side's multiplicities by
        one and lowers the drained side's by one, growing the squared-
        multiplicity potential by at least the cycle length. record, when
        given, receives one (delta_phi, cycle_length, spliced_edges) triple
        per pass.
        """
        cyc = cycle.vertices
        length = len(cyc)
        if length < 3:
            raise NotARedCycle("a red cycle has at least three vertices")
        n = self.n
        occ = self.occ
        if min(cyc) < 0 or max(cyc) >= n:
            raise NotARedCycle(f"{cyc} leaves the vertices [0, {n})")
        orient: list[bool] = []  # True = forward along cycle order
        mult: list[int] = []
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            entry = occ.get(a * n + b)
            orient.append(entry is not None)
            if entry is None:
                entry = occ.get(b * n + a)
                if entry is None:
                    raise NotARedCycle(f"({a}, {b}) is not a support edge")
            mult.append(len(entry))
        degree = self.degree
        for v in cyc:
            if degree[v] <= 2:
                raise NotARedCycle(f"vertex {v} is not red")
        if len(set(cyc)) != length:
            raise NotARedCycle("a red cycle visits no vertex twice")
        if all(orient) or not any(orient):
            raise NotARedCycle("cycle orientation has no mixed edges")

        sum_f = sum([m for m, o in zip(mult, orient) if o])
        sum_b = sum(mult) - sum_f
        drain_forward = sum_f < sum_b  # ties drain the backward side

        # rotate so position 0 starts a drained-side run, then split the
        # closed vertex sequence into runs of one orientation, each directed
        # along its edges; the cycle is fixed for the whole elimination
        start = next(i for i in range(length)
                     if orient[i] == drain_forward
                     and orient[i - 1] != drain_forward)
        ring = cyc[start:] + cyc[:start + 1]
        orient = orient[start:] + orient[:start]
        drained_runs: list[list[int]] = []
        kept_runs: list[list[int]] = []
        p = 0
        for forward, group in groupby(orient):
            q = p + len(list(group))
            verts = ring[p:q + 1]
            if not forward:
                verts.reverse()
            (drained_runs if forward == drain_forward else kept_runs).append(verts)
            p = q
        spliced = sum([len(verts) - 1 for verts in drained_runs])

        # only a pass's detached drained edges can vanish
        vanished = self._vanished
        while True:
            phi_before = self._phi
            seen = len(vanished)
            self._one_pass(drained_runs, kept_runs)
            if record is not None:
                record.append((self._phi - phi_before, length, spliced))
            if len(vanished) > seen:
                break

    def _one_pass(self, drained_runs, kept_runs) -> None:
        """One splice pass: make every drained run contiguous on some path,
        detach it, and reroute the loose ends through the kept runs. Runs
        are directed vertex lists."""
        chains = [self.splice_chain(verts) for verts in drained_runs]
        start_node: dict[int, int] = {}
        end_node: dict[int, int] = {}
        for verts, chain in zip(drained_runs, chains):
            start_node[verts[0]] = chain[0]
            end_node[verts[-1]] = chain[-1]
        n = self.n
        occ = self.occ
        degree = self.degree
        processed = self.processed
        vanished = self._vanished
        phi = self._phi
        # detach the drained chains; their interior nodes fall out of every
        # path, which is safe because red vertices keep other covered edges
        for verts, chain in zip(drained_runs, chains):
            for u, w, x in zip(verts, verts[1:], chain):
                key = u * n + w
                entry = occ[key]
                phi -= 2 * len(entry) - 1
                del entry[x]
                if not entry:
                    del occ[key]
                    processed.add(key)
                    vanished.append(key)
                    degree[u] -= 1
                    degree[w] -= 1
        # reconnect through the kept runs: the prefix arriving at a drained
        # run's start continues along the kept run to the suffix leaving the
        # matching drained run's end. Thinning never creates or revives an
        # edge, so a missing registry raises KeyError.
        vert, nxt = self.vert, self.nxt
        for verts in kept_runs:
            prev = start_node[verts[0]]
            u = verts[0]
            for w in verts[1:-1]:
                node = len(vert)
                vert.append(w)
                nxt.append(-1)
                nxt[prev] = node
                entry = occ[u * n + w]
                phi += 2 * len(entry) + 1
                entry[prev] = None
                prev = node
                u = w
            right = end_node[verts[-1]]
            nxt[prev] = right
            entry = occ[u * n + verts[-1]]
            phi += 2 * len(entry) + 1
            entry[prev] = None
        self._phi = phi


def eliminate_red_cycle(support: SupportGraph, cycle: RedCycle,
                        record: list | None = None) -> None:
    """Splice the support's cover along one side of a red cycle until an
    edge of that side disappears. Mutates the support in place."""
    support.eliminate_red_cycle(cycle, record=record)


def splice(cover: PathCover, d: list[int]) -> PathCover:
    """Reconnect cover paths so d appears contiguously in one of them.

    Preserves the number of paths and every edge multiplicity. The linked
    rebuild costs the cover's total length; inside thin the same machinery
    runs on the persistent structure at O(|d|) per call.
    """
    n = max((max(p) for p in cover.paths if p), default=-1) + 1
    support = SupportGraph(cover, n)
    support.splice_chain(d)
    return support.to_cover()


def thin(dag: Dag, cover: PathCover, instrument: list | None = None) -> PathCover:
    """Same-size cover whose distinct edges number less than 2|V|.

    instrument, when given, collects one (delta_phi, cycle_length,
    spliced_edges) record per elimination pass. A solver cover with its
    certificate is not validated again.
    """
    if solver_certificate(dag, cover) is None:
        report = validate_cover(dag, cover)
        if not report.ok:
            raise NotACover("; ".join(report.violations[:3]))
    support = SupportGraph(cover, dag.n)
    while True:
        cycle = support.find_red_cycle()
        if cycle is None:
            break
        support.eliminate_red_cycle(cycle, record=instrument)
    result = support.to_cover()
    assert result.size == cover.size
    return result


def cover_support(cover: PathCover) -> dict[tuple[int, int], int]:
    """Distinct edges of a cover with their multiplicities."""
    mu: dict[tuple[int, int], int] = {}
    for path in cover.paths:
        for e in zip(path, path[1:]):
            mu[e] = mu.get(e, 0) + 1
    return mu


def width_preserving_sparsify(dag: Dag) -> Dag:
    """Spanning subgraph with fewer than 2|V| edges and unchanged width."""
    from .incremental import solve

    if dag.n == 0:
        return dag
    thinned = thin(dag, solve(dag).cover)
    return build_dag(dag.n, sorted(cover_support(thinned)))
