"""Text formats shared by the CLI and tests.

Edge-list format: optional '#' comment lines, then "n m", then m lines "u v".
Path-cover format: first line "t", then t lines of space-separated vertex ids.

An edge list is read in one pass: each line's head goes straight onto its
tail's list, and dag.dag_from_heads finishes the Dag from those lists. Only
when a line is malformed, an id is negative or at least n, or an edge is a
self-loop does a second, checked pass run: it names the first fault in input
order, or remaps sparse ids and builds the Dag with build_dag.
"""
from __future__ import annotations

from .dag import Dag, PathCover, build_dag, dag_from_heads
from .errors import ParseError


def _data_lines(text: str) -> list[str]:
    lines = map(str.strip, text.splitlines())
    if "#" not in text:
        return list(filter(None, lines))
    return [ln for ln in lines if ln and not ln.startswith("#")]


def parse_edge_list(text: str, want_mapping: bool = False):
    """Parse the edge-list format into a Dag.

    Vertex ids need not be dense: if any id is >= n, all mentioned ids are
    remapped (sorted ascending) onto 0..d-1 and unmentioned vertices fill the
    remaining ids. With want_mapping=True returns (dag, mapping) where
    mapping[new_id] = original id.
    """
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    del lines[0]
    heads = _dense_heads(n, lines)
    if heads is None:
        return _parse_edges_checked(n, lines, want_mapping)
    del lines  # the line strings weigh about as much as the Dag: free them first
    dag = dag_from_heads(n, heads)
    return (dag, list(range(n))) if want_mapping else dag


def _dense_heads(n: int, lines: list[str]) -> list[list[int]] | None:
    """heads[u] for the edge lines "u v", or None unless every line holds two
    ints in [0, n) that differ."""
    heads: list[list[int]] = [[] for _ in range(n)]
    try:
        for a, b in map(str.split, lines):
            u, v = int(a), int(b)
            if u < 0 or u == v or not 0 <= v < n:
                return None
            heads[u].append(v)  # IndexError if u >= n
    except (ValueError, IndexError):
        return None
    return heads


def _parse_edges_checked(n: int, lines: list[str], want_mapping: bool):
    """The edge lines checked one by one, then remapped if any id is >= n."""
    raw_edges: list[tuple[int, int]] = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {ln!r}")
        raw_edges.append((u, v))

    if raw_edges and max(map(max, raw_edges)) >= n:
        ids = sorted({x for e in raw_edges for x in e})
        if len(ids) > n:
            raise ParseError(f"{len(ids)} distinct ids but n={n}")
        remap = {old: new for new, old in enumerate(ids)}
        mapping = list(ids)
        nxt = ids[-1] + 1  # fresh labels for unmentioned vertices
        for _ in range(len(ids), n):
            mapping.append(nxt)
            nxt += 1
        edges = [(remap[u], remap[v]) for u, v in raw_edges]
    else:
        mapping = list(range(n))
        edges = raw_edges
    dag = build_dag(n, edges)  # raises SelfLoop on the first self-loop in input order
    return (dag, mapping) if want_mapping else dag


def format_edge_list(dag: Dag) -> str:
    lines = [f"{dag.n} {dag.m}"]
    lines.extend(f"{u} {v}" for u, v in dag.edges())
    return "\n".join(lines) + "\n"


def parse_path_cover(text: str) -> PathCover:
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty cover input")
    try:
        t = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad path count {lines[0]!r}") from exc
    if len(lines) - 1 != t:
        raise ParseError(f"expected {t} path lines, found {len(lines) - 1}")
    paths = []
    for ln in lines[1:]:
        try:
            paths.append(list(map(int, ln.split())))
        except ValueError as exc:
            raise ParseError(f"bad path line {ln!r}") from exc
    return PathCover(paths)


def format_path_cover(cover: PathCover) -> str:
    lines = [str(cover.size)]
    lines.extend(" ".join(map(str, p)) for p in cover.paths)
    return "\n".join(lines) + "\n"


def format_antichain(members) -> str:
    return " ".join(map(str, sorted(members))) + "\n"
