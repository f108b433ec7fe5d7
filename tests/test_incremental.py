from __future__ import annotations

import random

import pytest

from dagwidth import (PathCover, build_dag, check_flow, decompose,
                      flow_from_cover, gen_random_dag, oracle_width, reaches,
                      remark_family, shrink, solve, validate_cover)
from dagwidth.errors import BadPathId, InvariantViolation, OrderViolation
from dagwidth.incremental import SolverState
from tests.conftest import corpus_instance


def test_solve_d4_both_variants(d4):
    for variant in ("k2", "k3"):
        result = solve(d4, variant=variant, debug=True)
        assert result.cover.paths == [[0, 1, 3], [2]]
        assert validate_cover(d4, result.cover).ok
        assert result.flow.size == 2
        assert result.levels.cut_demand[0] == 2


def test_solve_chain_is_single_path():
    chain = build_dag(100, [(i, i + 1) for i in range(99)])
    result = solve(chain, debug=True)
    assert result.cover.paths == [list(range(100))]


def test_solve_remark_three():
    fam = remark_family(3)
    for variant in ("k2", "k3"):
        assert solve(fam, variant=variant, debug=True).cover.size == 3


def test_first_insertion_levels(d4):
    state = SolverState(d4, "k2")
    result = state.insert_vertex(0, [])
    assert not result.found and result.min_level == 0
    assert state.lv[0] == 0 and state.lv[1] == 1
    assert state.f_size == 1


def test_sparsify_in_rejects_out_of_range_path_id(chain10):
    # one path exists after vertex 0, so its in-neighbor's id must be 1
    state = SolverState(chain10, "k2")
    state.insert_vertex(0, [])
    for bad in (5, 0):
        state.path_of[0] = bad
        with pytest.raises(BadPathId):
            state.insert_vertex(1, [0])


def test_insert_no_neighbors_fails_immediately():
    dag = build_dag(3, [(0, 1)])
    state = SolverState(dag, "k2")
    state.insert_vertex(0, [])
    state.insert_vertex(1, [0])
    before = state.f_size
    result = state.insert_vertex(2, [])
    assert not result.found and result._popped == []
    assert state.f_size == before + 1


def test_insert_last_d4_vertex_finds_path(d4):
    state = SolverState(d4, "k2", debug=True)
    for v in (0, 1, 2):
        state.insert_vertex(v, d4.in_adj[v])
    assert state.f_size == 2
    result = state.insert_vertex(3, [1, 2])
    assert result.found
    assert state.f_size == 2


def test_shortest_decrementing_path_through_end_vertex():
    # inserting a chain successor: the path is source, new in, end out, sink
    dag = build_dag(2, [(0, 1)])
    state = SolverState(dag, "k2")
    state.insert_vertex(0, [])
    result = state.insert_vertex(1, [0])
    assert result.found
    # 0_out (code 1) is the last vertex before the sink, entered straight
    # from 1_in over the reversed cross edge 0 -> 1
    assert (state.cross_tail[0], state.cross_head[0]) == (0, 1)
    assert result._last == 1
    assert result._pred == {1: (-1, 0, True)}


def test_merge_on_two_chain():
    dag = build_dag(2, [(0, 1)])
    state = SolverState(dag, "k2", debug=True)
    state.insert_vertex(0, [])
    state.insert_vertex(1, [0])
    assert state.last_merge
    assert state.cut_demand == [1]
    assert state.max_level == 1


def test_order_violations(d4):
    state = SolverState(d4, "k2")
    with pytest.raises(OrderViolation):
        state.insert_vertex(3, [1, 2])  # neighbors not inserted
    state.insert_vertex(0, [])
    with pytest.raises(OrderViolation):
        state.insert_vertex(0, [])  # twice


def test_end_vertices_track_flow(d4):
    state = SolverState(d4, "k2", debug=True)
    expected = [{0}, {1}, {1, 2}, {2, 3}]
    for v, want in zip(d4.topo, expected):
        state.insert_vertex(v, d4.in_adj[v])
        assert state.end_set == want


def _visits_per_vertex(dag):
    """How often the searches pop either half of each vertex, over one solve."""
    state = SolverState(dag, "k2")
    visits = [0] * dag.n
    for v in dag.topo:
        for x in state.insert_vertex(v, dag.in_adj[v])._popped:
            visits[x >> 1] += 1
    return visits


def test_chain_visits_constant_per_vertex():
    n = 200
    chain = build_dag(n, [(i, i + 1) for i in range(n - 1)])
    assert max(_visits_per_vertex(chain)) <= 2


def test_independent_set_no_traversal():
    assert sum(_visits_per_vertex(build_dag(30, []))) == 0


def test_variants_agree_on_trajectory():
    for seed in (1, 12, 77, 240):
        dag = corpus_instance(seed)
        sizes = {}
        for variant in ("k2", "k3"):
            state = SolverState(dag, variant)
            traj = []
            for v in dag.topo:
                state.insert_vertex(v, dag.in_adj[v])
                traj.append(state.f_size)
            sizes[variant] = traj
        assert sizes["k2"] == sizes["k3"]


def test_solve_deterministic(d4):
    a = solve(d4, "k2")
    b = solve(d4, "k2")
    assert a.cover.paths == b.cover.paths
    assert a.flow.values == b.flow.values


def test_path_of_forms_chain_cover():
    for seed in (4, 95, 303):
        dag = corpus_instance(seed)
        state = SolverState(dag, "k2")
        for v in dag.topo:
            state.insert_vertex(v, dag.in_adj[v])
        groups: dict[int, list[int]] = {}
        for v in range(dag.n):
            groups.setdefault(state.path_of[v], []).append(v)
        assert len(groups) == state.f_size == oracle_width(dag)
        assert sorted(groups) == list(range(1, state.f_size + 1))
        for members in groups.values():
            members.sort(key=dag.topo_pos.__getitem__)
            for a, b in zip(members, members[1:]):
                assert reaches(dag, a, b)


def test_variant_names_give_one_cover():
    for seed in range(200):
        dag = corpus_instance(seed)
        assert solve(dag, "k2").cover.paths == solve(dag, "k3").cover.paths, seed


def test_unknown_variant_raises(d4):
    with pytest.raises(ValueError, match="unknown variant 'k4'"):
        SolverState(d4, "k4")
    with pytest.raises(ValueError):
        solve(d4, "k4")


def test_levels_final_invariants(d4):
    lv = solve(d4, debug=True).levels
    for l1, l2 in zip(lv.cut_demand, lv.cut_demand[1:]):
        assert l1 > l2
    assert lv.max_level == len(lv.cut_demand)
    for v in range(4):
        assert lv.level_in[v] <= lv.level_out[v]


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.data())
def test_solver_matches_oracle_property(n, data):
    pairs = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]),
        max_size=3 * n)
    dag = build_dag(n, data.draw(pairs))
    width = oracle_width(dag)
    for variant in ("k2", "k3"):
        result = solve(dag, variant=variant, debug=True)
        assert result.cover.size == width
        assert validate_cover(dag, result.cover).ok


def test_regression_merge_demotes_anchor():
    # a merge right after link maintenance strips antichain status from that
    # iteration's walk anchor; pointers into its subpath must be redirected
    edges = [(1, 6), (5, 22), (6, 12), (7, 1), (8, 2), (9, 11), (11, 17),
             (12, 19), (13, 16), (14, 15), (15, 3), (16, 9), (17, 0),
             (20, 24), (21, 23), (22, 13), (23, 5), (24, 21)]
    dag = build_dag(25, edges)
    for variant in ("k2", "k3"):
        result = solve(dag, variant=variant, debug=True)
        assert result.cover.size == oracle_width(dag)


# the decrementing path pushes a second unit through demoted antichain
# vertices, so per-vertex new links alone cannot redirect stale pointers
DOUBLED_SPLIT_EDGES = [
    (1, 19), (2, 9), (3, 9), (4, 22), (5, 9), (5, 13), (5, 18),
    (6, 17), (7, 24), (8, 11), (9, 0), (9, 7), (10, 1), (10, 18),
    (10, 25), (11, 30), (13, 35), (14, 23), (14, 26), (15, 20),
    (15, 33), (16, 0), (17, 10), (17, 25), (18, 2), (19, 4),
    (19, 5), (20, 14), (20, 28), (20, 30), (21, 2), (21, 3),
    (21, 6), (21, 22), (22, 3), (24, 15), (24, 33), (25, 18),
    (26, 8), (27, 29), (28, 34), (29, 21), (30, 12), (31, 12),
    (32, 3), (32, 25), (34, 14), (35, 32)]


def test_regression_decrementing_path_doubles_split_flow():
    dag = build_dag(36, DOUBLED_SPLIT_EDGES)
    for variant in ("k2", "k3"):
        result = solve(dag, variant=variant, debug=True)
        assert result.cover.size == oracle_width(dag)


def test_trace_lines(d4, capsys):
    state = SolverState(d4, "k2", trace=True)
    import sys
    state._trace_out = sys.stdout
    for v in d4.topo:
        state.insert_vertex(v, d4.in_adj[v])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "i=0 found=False l=0 |f|=1 merge=False"


# ------------------------------------------------------------ region walks

def _reference_walk_back(state, end, l, consumed):
    """The backward walk with consumption kept in a tuple-keyed dict."""
    lv = state.lv
    seq = []
    u = end
    while True:
        key = ("sp", u)
        if state.split_f[u] - consumed.get(key, 0) < 1:
            raise InvariantViolation(f"split flow exhausted at {u}")
        consumed[key] = consumed.get(key, 0) + 1
        seq.append(u)
        if lv[2 * u] < l:
            break
        eid = -1
        for e in state.in_cross[u]:
            if state.cross_f[e] - consumed.get(("cr", e), 0) > 0:
                eid = e
                break
        if eid < 0:
            raise InvariantViolation(f"no positive in-edge at {u}")
        consumed[("cr", eid)] = consumed.get(("cr", eid), 0) + 1
        u = state.cross_tail[eid]
    seq.reverse()
    return seq


def _reference_decompose_region(state, l):
    consumed: dict = {}
    return [_reference_walk_back(state, e, l, consumed)
            for e in sorted(state.end_set) if state.lv[2 * e + 1] >= l]


def _solve_checking_walks(dag, variant):
    """Solve, comparing every region decomposition with the reference walk.

    Walks only read the flow, so the reference runs first on the same flow
    the solver's own decomposition then sees. `result()` copies the stored
    paths and runs no decomposition. Returns the levels the insertions'
    decompositions ran at and the most walks that passed through one vertex
    in one decomposition.
    """
    state = SolverState(dag, variant)
    decompose = state._decompose_region
    levels: list[int] = []
    most = 0

    def checked(l):
        nonlocal most
        want = _reference_decompose_region(state, l)
        got = decompose(l)
        assert got == want, (variant, state.count, l)
        levels.append(l)
        seen: dict[int, int] = {}
        for walk in got:
            for x in walk:
                seen[x] = seen.get(x, 0) + 1
        most = max([most, *seen.values()])
        return got

    state._decompose_region = checked
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    inserting = len(levels)
    assert state.result().cover.size == state.f_size
    assert len(levels) == inserting
    return levels, most


def _differential_dags():
    """Graphs with the most walks one vertex carries, where that is known."""
    for seed in range(200):
        yield corpus_instance(seed), None
    for s in (1, 2, 3):
        yield gen_random_dag(300, 30, 0.5, s), None
    for n in range(2, 9):
        yield remark_family(n), n  # every hub carries n units of split flow
    yield build_dag(36, DOUBLED_SPLIT_EDGES), None


def test_region_walks_match_dict_reference():
    for variant in ("k2", "k3"):
        levels = []
        for dag, hub_units in _differential_dags():
            at, most = _solve_checking_walks(dag, variant)
            levels += at
            assert hub_units is None or most == hub_units, (variant, dag.n)
        assert max(levels) >= 1, variant
        assert min(levels) >= 1, variant  # decompositions follow found paths only


def _solved(dag, variant):
    state = SolverState(dag, variant)
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    return state


# Corpus DAG 11 ends with three levels: at l = 1 its five walks take 37
# steps, three of them through one vertex.
LAYERED = 11


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_region_decomposition_repeats_on_unchanged_flow(variant):
    state = _solved(corpus_instance(LAYERED), variant)
    lv = state.lv
    first = state._decompose_region(1)
    assert state._decompose_region(1) == first
    # every unit of split flow whose out-half lies in the region is walked
    assert sum(map(len, first)) == sum(
        state.split_f[u] for u in range(state.n) if lv[2 * u + 1] >= 1)
    assert len(first) == len(state.end_set) == state.f_size
    assert all(lv[2 * walk[0]] < 1 <= lv[2 * x] for walk in first for x in walk[1:])


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_walk_flags_missing_split_flow(variant):
    state = _solved(corpus_instance(LAYERED), variant)
    end = min(state.end_set)  # the first walk starts on its split edge
    state.split_f[end] -= 1
    with pytest.raises(InvariantViolation, match=f"^split flow exhausted at {end}$"):
        state._decompose_region(1)


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_walk_flags_missing_cross_flow(variant):
    state = _solved(corpus_instance(LAYERED), variant)
    lv = state.lv
    e = next(e for e in range(len(state.cross_f))
             if state.cross_f[e] > 0 and lv[2 * state.cross_head[e]] >= 1)
    tail, head = state.cross_tail[e], state.cross_head[e]
    # at l = 1 the walks pass head's split split_f[head] times, and its in-edges
    # are one unit short of that
    state.cross_f[e] -= 1
    with pytest.raises(InvariantViolation, match=f"^no positive in-edge at {head}$"):
        state._decompose_region(1)
    with pytest.raises(InvariantViolation,
                       match=rf"^stored paths do not match the flow on \({tail}, {head}\)$"):
        state.result()


# ------------------------------------------------------- result from walks

def _lazy_flow_dags():
    for seed in range(200):
        yield corpus_instance(seed)
    for n in range(2, 7):
        yield remark_family(n)
    yield build_dag(36, DOUBLED_SPLIT_EDGES)


def _solver_flow_values(state, net):
    """The solver's flow arrays as values by canonical edge id of net."""
    values = state.split_f + state.srcin_f + state.outsink_f + [0] * len(net.cross_edges)
    for u, v, units in zip(state.cross_tail, state.cross_head, state.cross_f):
        values[net.cross_id[(u, v)]] = units
    return values


def test_lazy_flow_is_the_covers_flow():
    for dag in _lazy_flow_dags():
        for variant in ("k2", "k3"):
            state = _solved(dag, variant)
            result = state.result()
            assert check_flow(result.network, result.flow) == [], (dag, variant)
            assert decompose(result.network, result.flow).size == result.cover.size
            # the cover's flow is exactly the flow the solver kept
            assert result.flow.size == state.f_size
            assert (result.flow.values
                    == _solver_flow_values(state, result.network)), (dag, variant)
            firsts = [p[0] for p in result.cover.paths]
            assert firsts == sorted(firsts), (dag, variant)


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_stays_frozen(variant):
    state = _solved(remark_family(4), variant)
    result = state.result()
    paths = [list(p) for p in result.cover.paths]
    e = next(e for e in range(len(state.cross_f)) if state.cross_f[e] > 0)
    state.cross_f[e] += 1
    state.split_f[0] += 1
    state.f_size += 1
    assert result.cover.paths == paths
    assert result.flow.size == len(paths)
    assert check_flow(result.network, result.flow) == []
    assert flow_from_cover(result.network, result.cover).values == result.flow.values


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_unused_flow(variant):
    # a second source unit at a path head starts no stored path
    state = _solved(remark_family(4), variant)
    head = state.result().cover.paths[0][0]
    state.srcin_f[head] += 1
    with pytest.raises(InvariantViolation,
                       match="^stored paths do not start on the source-edge flow$"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_unused_cross_flow(variant):
    # a surplus unit on a positive cross edge is on no stored path
    state = _solved(remark_family(4), variant)
    h = next(h for h in range(state.n)
             if not state.srcin_f[h] and any(state.cross_f[e] for e in state.in_cross[h]))
    e = [e for e in state.in_cross[h] if state.cross_f[e]][-1]
    state.cross_f[e] += 1
    uv = rf"\({state.cross_tail[e]}, {h}\)"
    with pytest.raises(InvariantViolation, match=f"^stored paths do not match the flow on {uv}$"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_sink_and_size_mismatch(variant):
    state = _solved(remark_family(4), variant)
    inner = next(v for v in range(state.n) if v not in state.end_set)
    state.outsink_f[inner] += 1
    with pytest.raises(InvariantViolation,
                       match="^stored paths do not end on the sink-edge flow$"):
        state.result()
    state.outsink_f[inner] -= 1
    state.f_size += 1
    with pytest.raises(InvariantViolation, match="^4 stored paths for a flow of size 5$"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_cover_does_not_alias_stored_paths(variant):
    state = _solved(remark_family(4), variant)
    cover = state.result().cover
    assert sorted(cover.paths) == sorted(state.paths)
    assert all(p is not q for p in cover.paths for q in state.paths)
    before = [list(p) for p in cover.paths]
    for path in state.paths:
        path.append(-1)
    assert cover.paths == before


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_swapped_path_vertices(variant):
    # same vertices, heads and tails, but the steps leave the kept edges
    state = _solved(remark_family(4), variant)
    path = state.paths[0]
    path[1], path[2] = path[2], path[1]
    with pytest.raises(InvariantViolation, match="^stored path"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_repair_flags_wrong_path_of_at_boundary(variant):
    dag = corpus_instance(LAYERED)
    # the first repair with two or more paths, and a boundary it walks to
    state = SolverState(dag, variant)
    decompose = state._decompose_region
    repairs = []

    def recorded(l):
        walks = decompose(l)
        repairs.append((state.count, len(state.paths), walks[0][0]))
        return walks

    state._decompose_region = recorded
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    count, npaths, boundary = next(r for r in repairs if r[1] >= 2)

    state = SolverState(dag, variant)
    for v in dag.topo[:count - 1]:
        state.insert_vertex(v, dag.in_adj[v])
    wrong = state.path_of[boundary] % npaths + 1
    state.path_of[boundary] = wrong
    v = dag.topo[count - 1]
    with pytest.raises(InvariantViolation,
                       match=f"^(boundary {boundary} is not on its path {wrong}"
                             f"|path {wrong} ends below the region"
                             f"|two suffixes for path {wrong})$"):
        state.insert_vertex(v, dag.in_adj[v])


def test_result_flags_uninserted_vertex(d4):
    state = SolverState(d4, "k3")
    for v in (0, 1, 2):
        state.insert_vertex(v, d4.in_adj[v])
    with pytest.raises(InvariantViolation, match="^vertex 3 carries no split flow$"):
        state.result()


def _complete_bipartite_layers(sizes):
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = [(u, v) for i in range(len(sizes) - 1)
             for u in range(starts[i], starts[i + 1])
             for v in range(starts[i + 1], starts[i + 2])]
    return build_dag(starts[-1], edges)


def _chain_with_shortcuts(n, reach, extra, seed):
    """A chain, edges to the next `reach` vertices and `extra` random ones."""
    rng = random.Random(seed)
    edges = {(i, j) for i in range(n) for j in range(i + 1, min(n, i + reach + 1))}
    for _ in range(extra):
        i = rng.randrange(n - 1)
        edges.add((i, rng.randrange(i + 1, n)))
    return build_dag(n, sorted(edges))


STRUCTURED_FAMILIES = {
    **{f"remark-{n}": (lambda n=n: remark_family(n)) for n in range(9, 13)},
    "bipartite-layers-12x5": lambda: _complete_bipartite_layers([12] * 5),
    "bipartite-layers-mixed": lambda: _complete_bipartite_layers([3, 16, 1, 9, 16, 5]),
    "chain-shortcuts-200": lambda: _chain_with_shortcuts(200, 8, 800, 7),
    "single-vertex": lambda: build_dag(1, []),
    "empty": lambda: build_dag(0, []),
}


@pytest.mark.parametrize("family", sorted(STRUCTURED_FAMILIES))
def test_structured_family_width(family):
    dag = STRUCTURED_FAMILIES[family]()
    width = oracle_width(dag)
    for variant in ("k2", "k3"):
        result = solve(dag, variant=variant, debug=True)
        assert result.cover.size == width, variant
        assert validate_cover(dag, result.cover).ok, variant
    assert shrink(dag, PathCover([[v] for v in range(dag.n)])).size == width
