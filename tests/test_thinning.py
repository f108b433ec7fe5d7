from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dagwidth import (PathCover, build_dag, oracle_width, remark_family,
                      solve, splice, thin, validate_cover,
                      width_preserving_sparsify)
from dagwidth.errors import EdgeUncovered, OutOfRange
from dagwidth.thinning import RedCycle, SupportGraph, cover_support
from tests.conftest import corpus_instance, dense_cover


def test_splice_already_subpath_unchanged(d4):
    cover = PathCover([[0, 1, 3], [0, 2, 3]])
    result = splice(cover, [0, 2])
    assert result.paths == cover.paths


def test_splice_hand_trace():
    dag = build_dag(3, [(0, 1), (1, 2)])
    cover = PathCover([[0, 1], [1, 2]])
    result = splice(cover, [0, 1, 2])
    assert result.paths == [[0, 1, 2], [1]]
    assert validate_cover(dag, result).ok


def test_splice_rejects_uncovered_edge(d4):
    cover = PathCover([[0, 1, 3], [0, 2, 3]])
    with pytest.raises(EdgeUncovered):
        splice(cover, [1, 3, 2])


def test_splice_rejects_ids_outside_the_vertices():
    # with edge keys u*n + w, (0, 5) would alias (1, 2) at n = 3
    cover = PathCover([[0, 1, 2], [1, 2]])
    with pytest.raises(EdgeUncovered):
        splice(cover, [0, 5])
    with pytest.raises(EdgeUncovered):
        splice(cover, [1, -1])


def test_support_graph_rejects_cover_ids_outside_the_vertices():
    with pytest.raises(OutOfRange):
        SupportGraph(PathCover([[0, 5]]), 3)
    with pytest.raises(OutOfRange):
        SupportGraph(PathCover([[-1, 0]]), 3)


def test_splice_preserves_multiplicities_randomized():
    rng = random.Random(7)
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        dag = corpus_instance(seed % 700)
        if dag.m == 0:
            continue
        cover = solve(dag).cover
        mu = cover_support(cover)
        edges = list(mu)
        # random walk over cover edges builds a valid splice target
        d = list(edges[rng.randrange(len(edges))])
        while rng.random() < 0.7:
            step = [e for e in edges if e[0] == d[-1] and e[1] not in d]
            if not step:
                break
            d.append(step[rng.randrange(len(step))][1])
        result = splice(cover, d)
        assert result.size == cover.size
        assert cover_support(result) == mu
        joined = any(
            d == path[i:i + len(d)]
            for path in result.paths for i in range(len(path)))
        assert joined, (seed, d, result.paths)
        checked += 1


def test_thin_chain_unchanged(chain10):
    cover = PathCover([list(range(10))])
    assert thin(chain10, cover).paths == cover.paths


@pytest.mark.parametrize("n", range(2, 7))
def test_thin_remark_family_exact_ratio(n):
    fam = remark_family(n)
    cover = solve(fam).cover
    thinned = thin(fam, cover)
    distinct = len(cover_support(thinned))
    assert Fraction(distinct, fam.n) == 2 - Fraction(4, n + 2)
    assert distinct == 2 * n * n


def _support_structure_ok(dag, thinned):
    mu = cover_support(thinned)
    degree: dict[int, int] = {}
    for u, v in mu:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    red = {v for v, d in degree.items() if d > 2}
    # red edges form a forest: union-find over red-red edges
    parent = {v: v for v in red}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in mu:
        if u in red and v in red:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    # blue vertices have degree at most two by definition; purple edges may
    # only attach to blue vertices with at most one blue-blue edge
    for u, v in mu:
        colors = (u in red, v in red)
        if colors == (True, True) or colors == (False, False):
            continue
        blue_end = v if u in red else u
        blue_deg = sum(1 for a, b in mu
                       if (a == blue_end or b == blue_end)
                       and a not in red and b not in red)
        if blue_deg > 1:
            return False
    return True


@pytest.mark.parametrize("seed", [9, 77, 388, 645])
def test_thin_corpus_instance(seed):
    dag = corpus_instance(seed)
    cover = solve(dag).cover
    record: list = []
    thinned = thin(dag, cover, instrument=record)
    assert thinned.size == cover.size
    assert validate_cover(dag, thinned).ok
    assert dag.n == 0 or len(cover_support(thinned)) < 2 * dag.n
    assert _support_structure_ok(dag, thinned)
    for delta_phi, cycle_len, _ in record:
        assert delta_phi >= cycle_len


def test_eliminate_passes_grow_potential():
    # redundant covers carry red cycles that lean solver covers lack
    total_passes = 0
    for seed in range(40):
        dag = corpus_instance(seed)
        if dag.n < 3:
            continue
        cover = dense_cover(dag, seed)
        record: list = []
        thinned = thin(dag, cover, instrument=record)
        assert thinned.size == cover.size
        assert validate_cover(dag, thinned).ok
        total_passes += len(record)
        for delta_phi, cycle_len, drained in record:
            assert delta_phi >= cycle_len >= 3
            assert drained >= 1
    assert total_passes > 0, "dense covers produced no red cycles at all"


def _phi_of(cover):
    return sum(m * m for m in cover_support(cover).values())


def test_support_graph_phi_matches_cover():
    cover = PathCover([[0, 1, 3], [0, 2, 3], [0, 1, 3]])
    support = SupportGraph(cover, 4)
    assert support.phi() == _phi_of(cover)
    # the running value follows splices and eliminations
    checked = 0
    for seed in range(40):
        dag = corpus_instance(seed)
        if dag.n < 3:
            continue
        support = SupportGraph(dense_cover(dag, seed), dag.n)
        for _ in range(3):
            cycle = support.find_red_cycle()
            if cycle is None:
                break
            support.eliminate_red_cycle(cycle)
            assert support.phi() == _phi_of(support.to_cover()), seed
            checked += 1
    assert checked > 0


def _check_arrays(support):
    """The int layout is consistent: walking nxt from the heads reaches
    every live node exactly once, so the chains are disjoint, acyclic and
    headed; each registry holds exactly the live tails of its edge, degree
    and phi match a recount."""
    n, vert, nxt = support.n, support.vert, support.nxt
    tails: dict = {}
    reached: set = set()
    for head in support.heads:
        x = head
        while x != -1:
            assert x not in reached
            reached.add(x)
            y = nxt[x]
            if y != -1:
                tails.setdefault(vert[x] * n + vert[y], set()).add(x)
            x = y
    assert {key: set(entry) for key, entry in support.occ.items()} == tails
    degree = [0] * n
    for key in support.occ:
        for x in divmod(key, n):
            degree[x] += 1
    assert support.degree == degree
    assert support.phi() == sum(len(e) ** 2 for e in support.occ.values())


def test_arrays_stay_consistent_through_eliminations():
    eliminated = 0
    for seed in range(40):
        dag = corpus_instance(seed)
        support = SupportGraph(dense_cover(dag, seed), dag.n)
        _check_arrays(support)
        while (cycle := support.find_red_cycle()) is not None:
            support.eliminate_red_cycle(cycle)
            _check_arrays(support)
            eliminated += 1
    assert eliminated > 0


def _restart_find_red_cycle(support):
    """Reference search: rebuild the red adjacency and restart the
    depth-first search from the lowest red root on every call. The
    resumable SupportGraph.find_red_cycle must find the same cycles."""
    adj: dict = {}
    for edge in support.occ:
        u, v = divmod(edge, support.n)
        if (edge not in support.processed and support.is_red(u)
                and support.is_red(v)):
            adj.setdefault(u, []).append((v, edge))
            adj.setdefault(v, []).append((u, edge))
    for entries in adj.values():
        entries.sort()
    visited: set = set()
    for root in sorted(adj):
        if root in visited:
            continue
        visited.add(root)
        stack = [root]
        pos = {root: 0}
        parent_edge: dict = {root: None}
        cursor = {root: 0}
        while stack:
            v = stack[-1]
            entries = adj.get(v, ())
            advanced = False
            while cursor[v] < len(entries):
                w, edge = entries[cursor[v]]
                cursor[v] += 1
                if edge in support.processed or edge == parent_edge[v]:
                    continue
                if w in pos:
                    return RedCycle(stack[pos[w]:])
                if w in visited:
                    continue
                visited.add(w)
                stack.append(w)
                pos[w] = len(stack) - 1
                parent_edge[w] = edge
                cursor[w] = 0
                advanced = True
                break
            if not advanced:
                stack.pop()
                del pos[v]
                pe = parent_edge[v]
                if pe is not None:
                    support.processed.add(pe)
    return None


def _cycle_sequences(cover, n, first=None):
    """Cycles found by the resumable search and by the restarting one, each
    side eliminating its own cycles on its own copy of the support. first,
    when given, is eliminated on both copies before either search runs."""
    resumed, restarted = SupportGraph(cover, n), SupportGraph(cover, n)
    if first is not None:
        resumed.eliminate_red_cycle(first)
        _check_arrays(resumed)
        restarted.eliminate_red_cycle(first)
    seq_a, seq_b = [], []
    while True:
        a = resumed.find_red_cycle()
        b = _restart_find_red_cycle(restarted)
        seq_a.append(a and a.vertices)
        seq_b.append(b and b.vertices)
        if a is None or b is None:
            break
        resumed.eliminate_red_cycle(a)
        _check_arrays(resumed)
        restarted.eliminate_red_cycle(b)
    assert resumed.to_cover().paths == restarted.to_cover().paths
    return seq_a, seq_b


def test_resumed_search_matches_restarted_search_dense():
    total = 0
    for seed in range(200):
        dag = corpus_instance(seed)
        if dag.n == 0:
            continue
        seq_a, seq_b = _cycle_sequences(dense_cover(dag, seed), dag.n)
        assert seq_a == seq_b, seed
        total += len(seq_a) - 1
    assert total > 0, "dense covers produced no red cycles at all"


def test_resumed_search_matches_restarted_search_after_early_elimination():
    # an elimination before the first search call: the search builds its
    # adjacency lazily, from the support as the elimination left it
    exercised = 0
    for seed in range(200):
        dag = corpus_instance(seed)
        if dag.n == 0:
            continue
        cover = dense_cover(dag, seed)
        first = _restart_find_red_cycle(SupportGraph(cover, dag.n))
        if first is None:
            continue
        seq_a, seq_b = _cycle_sequences(cover, dag.n, first)
        assert seq_a == seq_b, seed
        exercised += 1
    assert exercised > 0, "dense covers produced no red cycles at all"


@pytest.mark.parametrize("n", range(2, 7))
def test_resumed_search_matches_restarted_search_remark(n):
    fam = remark_family(n)
    seq_a, seq_b = _cycle_sequences(solve(fam).cover, fam.n)
    assert seq_a == seq_b


def test_find_red_cycle_repeats_without_elimination():
    repeated = 0
    for seed in range(40):
        dag = corpus_instance(seed)
        if dag.n < 3:
            continue
        support = SupportGraph(dense_cover(dag, seed), dag.n)
        while True:
            cycle = support.find_red_cycle()
            again = support.find_red_cycle()
            assert (cycle and cycle.vertices) == (again and again.vertices)
            if cycle is None:
                break
            repeated += 1
            support.eliminate_red_cycle(cycle)
    assert repeated > 0


def test_eliminate_red_cycle_direct():
    from dagwidth import eliminate_red_cycle
    from dagwidth.errors import NotARedCycle
    # K4-ish support where 0,1,2,3 all have degree 3: a red cycle exists
    dag = build_dag(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cover = PathCover([[0, 1, 2, 3], [0, 2], [1, 3], [0, 3], [0, 1], [2, 3]])
    support = SupportGraph(cover, 4)
    cycle = support.find_red_cycle()
    assert cycle is not None
    record: list = []
    eliminate_red_cycle(support, cycle, record=record)
    assert record and all(d >= c for d, c, _ in record)
    out = support.to_cover()
    assert out.size == cover.size
    assert validate_cover(dag, out).ok
    # a single backward edge with multiplicity one disappears in one pass
    with pytest.raises(NotARedCycle):
        eliminate_red_cycle(support, RedCycle([0, 1]))
    # every check but simplicity passes: red vertices, support edges, and
    # mixed orientation along 0 -> 1 -> 2 <- 0
    fresh = SupportGraph(cover, 4)
    with pytest.raises(NotARedCycle):
        eliminate_red_cycle(fresh, RedCycle([0, 1, 2, 0, 1, 2]))
    assert fresh.to_cover().paths == cover.paths


def test_ids_outside_the_vertices_are_not_red():
    from dagwidth import eliminate_red_cycle
    from dagwidth.errors import NotARedCycle
    cover = PathCover([[0, 1, 2, 3], [0, 2], [1, 3], [0, 3], [0, 1], [2, 3]])
    support = SupportGraph(cover, 4)
    assert support.is_red(3)
    assert not support.is_red(4) and not support.is_red(-1)
    assert support.mu((1, -1)) == 0
    # keyed as u*4 + w, (1, -1) would read as (0, 3) and (-1, 2) as (1, 3)
    with pytest.raises(NotARedCycle):
        eliminate_red_cycle(support, RedCycle([1, -1, 2]))
    assert support.to_cover().paths == cover.paths
    # the same graph numbered backwards: (0, 4) would read as (1, 0)
    back = PathCover([[3, 2, 1, 0], [3, 1], [2, 0], [3, 0], [3, 2], [1, 0]])
    support = SupportGraph(back, 4)
    assert support.mu((0, 4)) == 0
    with pytest.raises(NotARedCycle):
        eliminate_red_cycle(support, RedCycle([0, 4, 2]))
    assert support.to_cover().paths == back.paths


def test_width_preserving_sparsify_d4(d4):
    sparse = width_preserving_sparsify(d4)
    assert oracle_width(sparse) == 2
    assert sparse.m <= 4


def test_width_preserving_sparsify_chain(chain10):
    sparse = width_preserving_sparsify(chain10)
    assert sparse.edges() == chain10.edges()


@pytest.mark.parametrize("seed", [14, 91, 404])
def test_width_preserving_sparsify_corpus(seed):
    dag = corpus_instance(seed)
    sparse = width_preserving_sparsify(dag)
    assert oracle_width(sparse) == oracle_width(dag)
    assert dag.n == 0 or sparse.m < 2 * dag.n
