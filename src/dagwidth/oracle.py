"""Independent brute-force references used to check the fast algorithms.

Nothing here shares code with the flow machinery: width comes from bipartite
matching on the transitive closure, antichains from subset search, and cover
validation from direct edge checks.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import contains

from .dag import Dag, PathCover
from .errors import TooLarge

WIDTH_BOUND = 500
ANTICHAIN_BOUND = 20


def closure_masks(dag: Dag) -> list[int]:
    """reach[u] as a bitmask over vertices, including u itself."""
    reach = [0] * dag.n
    for u in reversed(dag.topo):
        mask = 1 << u
        for v in dag.out_adj[u]:
            mask |= reach[v]
        reach[u] = mask
    return reach


def oracle_width(dag: Dag) -> int:
    """Width via Fulkerson's reduction: n minus a maximum matching of the closure.

    The matching is found by plain augmenting-path search, which is plenty at
    oracle scale and stays independent of the flow-based solvers.
    """
    n = dag.n
    if n > WIDTH_BOUND:
        raise TooLarge(f"oracle_width limited to n <= {WIDTH_BOUND}")
    if n == 0:
        return 0
    reach = closure_masks(dag)
    adj = [reach[u] & ~(1 << u) for u in range(n)]  # strict reachability

    match_right = [-1] * n  # right vertex -> matched left vertex
    match_left = [-1] * n

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        def try_augment(u: int, seen: list[bool]) -> bool:
            mask = adj[u]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if not seen[v]:
                    seen[v] = True
                    if match_right[v] == -1 or try_augment(match_right[v], seen):
                        match_right[v] = u
                        match_left[u] = v
                        return True
            return False

        # Greedy warm start keeps the augmenting phase short.
        for u in range(n):
            mask = adj[u]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if match_right[v] == -1:
                    match_right[v] = u
                    match_left[u] = v
                    break
        matched = sum(1 for u in range(n) if match_left[u] != -1)
        for u in range(n):
            if match_left[u] == -1:
                if try_augment(u, [False] * n):
                    matched += 1
    finally:
        sys.setrecursionlimit(old_limit)
    return n - matched


def oracle_max_antichain(dag: Dag) -> int:
    """Maximum antichain size by exhaustive search (n <= 20)."""
    n = dag.n
    if n > ANTICHAIN_BOUND:
        raise TooLarge(f"oracle_max_antichain limited to n <= {ANTICHAIN_BOUND}")
    if n == 0:
        return 0
    reach = closure_masks(dag)
    # conflict[u]: vertices comparable with u (either direction), excluding u.
    conflict = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and ((reach[u] >> v) & 1 or (reach[v] >> u) & 1):
                conflict[u] |= 1 << v

    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        grow((candidates & ~(1 << v)) & ~conflict[v], size + 1)  # take v
        grow(candidates & ~(1 << v), size)  # skip v

    grow((1 << n) - 1, 0)
    return best


@dataclass
class CoverReport:
    """Outcome of validate_cover: ok iff no violations were recorded."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cover(dag: Dag, cover: PathCover) -> CoverReport:
    """Check that every sequence is a path of dag and every vertex is covered."""
    if _cover_is_valid(dag, cover.paths):
        return CoverReport()
    report = CoverReport()
    covered = bytearray(dag.n)
    for idx, path in enumerate(cover.paths):
        if not path:
            report.violations.append(f"empty path at index {idx}")
            continue
        for v in path:
            if not (0 <= v < dag.n):
                report.violations.append(f"unknown vertex: {v}")
            else:
                covered[v] = 1
        for u, v in zip(path, path[1:]):
            if not (0 <= u < dag.n and 0 <= v < dag.n):
                continue
            if v not in dag.out_adj[u]:
                report.violations.append(f"not an edge: ({u}, {v})")
    for v in range(dag.n):
        if not covered[v]:
            report.violations.append(f"uncovered: {v}")
    return report


def _cover_is_valid(dag: Dag, paths: list[list[int]]) -> bool:
    """validate_cover's verdict when it finds nothing, decided in builtins.

    False means some check failed, and the step-by-step loop then lists the
    violations.
    """
    n = dag.n
    if not all(paths):
        return False
    flat = list(chain.from_iterable(paths))
    if not flat:
        return n == 0
    if min(flat) < 0 or max(flat) >= n or len(set(flat)) != n:
        return False
    tails = chain.from_iterable(islice(p, len(p) - 1) for p in paths)
    heads = chain.from_iterable(islice(p, 1, None) for p in paths)
    return all(map(contains, map(dag.out_adj.__getitem__, tails), heads))
