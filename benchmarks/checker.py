"""Output checks that share no code with dagwidth.

Every check reads the text the library produced with this module's own
parsers and judges it against the input graph. A valid cover and a pairwise
incomparable antichain of the same size certify each other as minimum and
maximum (Dilworth), at any n. Each check returns a list of problems; an
empty list means the output passed.
"""
from __future__ import annotations


class CheckError(ValueError):
    """Output text that does not parse."""


class Graph:
    """Input DAG as read back from edge-list text."""

    __slots__ = ("n", "out", "inn", "edges")

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = edges
        self.out: list[set[int]] = [set() for _ in range(n)]
        self.inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.out[u].add(v)
            self.inn[v].append(u)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.out[u]

    def topo_order(self) -> list[int]:
        indeg = [len(a) for a in self.inn]
        order = [v for v in range(self.n) if indeg[v] == 0]
        for u in order:
            for v in self.out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) != self.n:
            raise CheckError("graph has a cycle")
        return order


def _data_lines(text: str) -> list[str]:
    return [ln for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")]


def _ints(line: str) -> list[int]:
    try:
        return [int(x) for x in line.split()]
    except ValueError as exc:
        raise CheckError(f"bad line {line!r}") from exc


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise CheckError("empty edge list")
    head = _ints(lines[0])
    if len(head) != 2 or head[1] != len(lines) - 1:
        raise CheckError(f"bad header {lines[0]!r}")
    n = head[0]
    edges = []
    for ln in lines[1:]:
        e = _ints(ln)
        if len(e) != 2 or not all(0 <= x < n for x in e) or e[0] == e[1]:
            raise CheckError(f"bad edge {ln!r}")
        edges.append((e[0], e[1]))
    if len(set(edges)) != len(edges):
        raise CheckError("duplicate edge")
    return Graph(n, edges)


def parse_paths(text: str) -> list[list[int]]:
    lines = _data_lines(text)
    if not lines or _ints(lines[0]) != [len(lines) - 1]:
        raise CheckError("path count line does not match the paths")
    return [_ints(ln) for ln in lines[1:]]


def parse_ids(text: str) -> list[int]:
    lines = _data_lines(text)
    if len(lines) > 1:
        raise CheckError("vertex set spans several lines")
    return _ints(lines[0]) if lines else []


def cover_problems(g: Graph, paths: list[list[int]]) -> list[str]:
    """Every sequence is a non-empty path of g and every vertex is on one."""
    problems = []
    covered = bytearray(g.n)
    for idx, path in enumerate(paths):
        if not path:
            problems.append(f"path {idx} is empty")
        for v in path:
            if not 0 <= v < g.n:
                problems.append(f"path {idx} has unknown vertex {v}")
                break
            covered[v] = 1
        else:
            for u, v in zip(path, path[1:]):
                if not g.has_edge(u, v):
                    problems.append(f"path {idx} uses non-edge ({u}, {v})")
                    break
    missing = g.n - sum(covered)
    if missing:
        problems.append(f"{missing} vertices uncovered")
    return problems


def antichain_problems(g: Graph, members: list[int], k: int) -> list[str]:
    """members has size k and no member reaches another.

    One topological pass: r[v] is set iff some member strictly reaches v.
    """
    if len(members) != k:
        return [f"antichain has {len(members)} vertices, cover has {k} paths"]
    if len(set(members)) != len(members) or not all(0 <= v < g.n for v in members):
        return ["antichain lists a vertex twice or out of range"]
    member = bytearray(g.n)
    for v in members:
        member[v] = 1
    r = bytearray(g.n)
    for v in g.topo_order():
        for u in g.inn[v]:
            if member[u] or r[u]:
                r[v] = 1
                break
    comparable = [v for v in members if r[v]]
    if comparable:
        return [f"antichain vertex {comparable[0]} is reached by another member"]
    return []


def reach_index(g: Graph, paths: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Reachability certified by a valid path cover, in O(|paths| * (n + m)).

    last[p][v] is the largest position on path p of a vertex reaching v (or
    -1); where[v] is one (path, position) holding v. u reaches v iff
    last[p][v] >= i for (p, i) = where[u].
    """
    order = g.topo_order()
    where = [(-1, -1)] * g.n
    last = []
    for p, path in enumerate(paths):
        row = [-1] * g.n
        for i, v in enumerate(path):
            row[v] = i
            if where[v][0] < 0:
                where[v] = (p, i)
        for v in order:
            best = row[v]
            for u in g.inn[v]:
                if row[u] > best:
                    best = row[u]
            row[v] = best
        last.append(row)
    return last, where


def chain_problems(g: Graph, chains: list[list[int]], paths: list[list[int]],
                   k: int) -> list[str]:
    """k vertex-disjoint chains covering g; paths must be a valid cover."""
    if len(chains) != k:
        return [f"{len(chains)} chains, width is {k}"]
    seen = bytearray(g.n)
    for chain in chains:
        for v in chain:
            if not 0 <= v < g.n:
                return [f"chain has unknown vertex {v}"]
            if seen[v]:
                return [f"vertex {v} lies on two chains"]
            seen[v] = 1
    if sum(seen) != g.n:
        return ["chains do not cover every vertex"]
    last, where = reach_index(g, paths)
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            p, i = where[u]
            if last[p][v] < i:
                return [f"chain steps from {u} to {v}, which it does not reach"]
    return []


def sparsified_problems(g: Graph, s: Graph, paths: list[list[int]], k: int) -> list[str]:
    """s is a spanning subgraph of g, in-degree <= k, on which paths stay a cover."""
    if s.n != g.n:
        return [f"sparsified graph has {s.n} vertices, input has {g.n}"]
    problems = []
    extra = [e for e in s.edges if not g.has_edge(*e)]
    if extra:
        problems.append(f"sparsified edge {extra[0]} is not an input edge")
    worst = max((len(a) for a in s.inn), default=0)
    if worst > k:
        problems.append(f"in-degree {worst} exceeds the cover size {k}")
    problems.extend("on the sparsified graph: " + p for p in cover_problems(s, paths))
    return problems


def support_edges(paths: list[list[int]]) -> set[tuple[int, int]]:
    return {e for path in paths for e in zip(path, path[1:])}


def thinned_problems(g: Graph, thinned: list[list[int]], size: int,
                     support: Graph | None = None) -> list[str]:
    """Same cover size, valid on g, fewer than 2n distinct edges; support,
    when given, lists exactly those edges."""
    problems = []
    if len(thinned) != size:
        problems.append(f"thinning changed the cover size {size} -> {len(thinned)}")
    problems.extend(cover_problems(g, thinned))
    used = support_edges(thinned)
    if g.n and len(used) >= 2 * g.n:
        problems.append(f"{len(used)} distinct support edges >= 2n = {2 * g.n}")
    if support is not None and set(support.edges) != used:
        problems.append("support edge list differs from the thinned cover's edges")
    return problems
