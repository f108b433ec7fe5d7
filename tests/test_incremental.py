from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from dagwidth import (PathCover, build_dag, check_flow, decompose,
                      flow_from_cover, gen_random_dag, incremental, oracle_width,
                      reaches, remark_family, shrink, solve, validate_cover)
from dagwidth.dag import Dag
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
    assert result._steps == [(0, True)]


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


@pytest.mark.parametrize("bad", [-1, 7])
def test_out_of_range_in_neighbours_are_rejected(bad):
    # -1 would read the inserted flag of vertex 2 and 7 lies past the end;
    # neither may reach the solver's lists
    dag = build_dag(3, [(2, 0), (2, 1)])
    state = SolverState(dag, "k2", debug=True)
    state.insert_vertex(2, [])
    with pytest.raises(OrderViolation, match=f"^in-neighbor {bad} of 0 out of range$"):
        state.insert_vertex(0, [2, bad])
    assert state.count == 1 and state.cross_tail == [] and not state.inserted[0]
    state.insert_vertex(0, dag.in_adj[0])
    assert state.paths == [[2, 0]]


def test_end_vertices_track_flow(d4):
    state = SolverState(d4, "k2", debug=True)
    expected = [{0}, {1}, {1, 2}, {2, 3}]
    for v, want in zip(d4.topo, expected):
        state.insert_vertex(v, d4.in_adj[v])
        assert {u for u in range(d4.n) if state.outsink_f[u]} == want


def _visits_per_vertex(dag):
    """How often the searches pop either half of each vertex, over one solve."""
    state = SolverState(dag, "k2")
    visits = [0] * dag.n
    for v in dag.topo:
        for x in state.insert_vertex(v, dag.in_adj[v])._popped:
            visits[x >> 1] += 1
    return visits


# Recorded at revision 31e31fe, whose search kept edge-id adjacency, tuple
# predecessors and a queue for every level: the counts and covers pin the
# pops and their order. The cover is the sha256 of its paths' JSON, cut to 16.
# The search digest, recorded at 7997d63 (before one-pop insertions skipped
# the layered loop), is the same hash over every insertion's popped codes,
# steps, last code, min level and merge flag, then the final levels. On
# remark-8 one insertion in five pops once and finds its path; on
# random-2000 nearly all do, so both one-pop and longer searches are pinned;
# the step route runs both through the same layered loop in `_search`.
# Once failed searches stopped above level 0, random-2000's pops, traversal
# and total units and search digest were recorded again (no failed search
# on remark-8 walked level 0). The steps digest, recorded at f9c1d57
# before that stop, is the search digest without the popped codes: the stop
# changed what a failed search pops and nothing else.
PINNED_TRAVERSALS = [
    (lambda: remark_family(8), 632,
     {"total_units": 7716, "traversal_units": 6984, "sparsify_units": 732,
      "repair_units": 200, "merges": 16}, "ef65b8fd5abff1bb", "2e5f1fda1d94685e",
     "e649e32b692b8149"),
    (lambda: gen_random_dag(2000, 4, 2.0, 1), 3639,
     {"total_units": 33206, "traversal_units": 22229, "sparsify_units": 10977,
      "repair_units": 4152, "merges": 1976}, "76ae61c857d6a1e6", "279be661ff399be7",
     "e10b469b596d4d00"),
]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, pops, charges, cover_digest, search_digest, steps_digest",
                         PINNED_TRAVERSALS, ids=["remark-8", "random-2000"])
def test_traversal_matches_recorded_counts(make, pops, charges, cover_digest,
                                           search_digest, steps_digest):
    dag = make()
    state = SolverState(dag, "k2")
    searches = []
    for v in dag.topo:
        r = state.insert_vertex(v, dag.in_adj[v])
        searches.append([r._popped, r._steps, r._last, r.min_level, state.last_merge])
    result = state.result()
    levels = result.levels
    final = [levels.level_in, levels.level_out, levels.cut_demand]
    assert sum(len(s[0]) for s in searches) == pops
    assert state.charge_counters() == charges
    assert _digest(result.cover.paths) == cover_digest
    assert _digest([searches, *final]) == search_digest
    assert _digest([[s[1:] for s in searches], *final]) == steps_digest


def _residual_reaches_an_end(state, v) -> bool:
    """Whether a plain BFS over the whole residual, at every level, reaches
    an end vertex's out-half from v's in-half.

    The residual comes from the flow arrays alone: a kept edge (t, h) can
    gain a unit (h_in -> t_out) and lose one while it carries flow
    (t_out -> h_in); a split can gain one (u_out -> u_in) and lose one above
    its demand of 1 (u_in -> u_out).
    """
    adj: list[list[int]] = [[] for _ in range(2 * state.n)]
    for t, h, f in zip(state.cross_tail, state.cross_head, state.cross_f):
        adj[2 * h].append(2 * t + 1)
        if f > 0:
            adj[2 * t + 1].append(2 * h)
    for u in range(state.n):
        if state.inserted[u]:
            adj[2 * u + 1].append(2 * u)
            if state.split_f[u] > 1:
                adj[2 * u].append(2 * u + 1)
    seen = {2 * v}
    queue = [2 * v]
    for x in queue:
        if x & 1 and state.outsink_f[x >> 1] > 0:
            return True
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def _checked_search(state, tally: Counter):
    """state._search, checked on every call against the residual BFS; it
    must also pop no code that is on level 0 when it searches."""
    search = state._search

    def checked(v):
        result = search(v)
        assert all(state.lv[x] for x in result._popped), v
        assert _residual_reaches_an_end(state, v) == result.found, v
        tally["failed"] += not result.found
        tally["failed_with_pops"] += not result.found and bool(result._popped)
        return result
    return checked


def test_failed_searches_miss_no_decrementing_path():
    # a failed search stops above level 0; the BFS ignores levels, and it
    # must find a path exactly when the search does
    tally: Counter = Counter()
    dags = [corpus_instance(seed) for seed in range(1000)]
    dags += [gen_random_dag(300, 30, 0.5, seed) for seed in (1, 2, 3)]
    for dag in dags:
        state = SolverState(dag, "k2")
        state._search = _checked_search(state, tally)
        for v in dag.topo:
            state.insert_vertex(v, dag.in_adj[v])
    assert tally["failed_with_pops"] > 0 and tally["failed"] > tally["failed_with_pops"]


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


# ------------------------------------------------------------ path splices

def _solved(dag, variant):
    state = SolverState(dag, variant)
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    return state


def _splice_moves(dag, variant="k3"):
    """Solve under the debug audit, counting the splice's moves.

    Each found path's steps are read before `_k3_repair` splices along
    them: reverse split steps prepend a new occurrence, slack split steps drop
    D's head, and decreased cross edges either cut a stored path (counted
    at the `_find` lookup of the step) or are skipped as a dropped head's
    own first step. Every found path ends with one end-vertex append.
    """
    state = SolverState(dag, variant, debug=True)
    moves = Counter()
    find = state._find
    repair = state._k3_repair

    def counted(u, w, l):
        if w >= 0:
            moves["cut"] += 1
        return find(u, w, l)

    def recorded(result, v, l):
        moves["end"] += 1
        for ekey, is_rev in result._steps:
            if ekey < 0:
                moves["prepend" if is_rev else "drop"] += 1
            elif not is_rev:
                moves["decreased"] += 1
        repair(result, v, l)

    state._find = counted
    state._k3_repair = recorded
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    moves["skip"] = moves.pop("decreased", 0) - moves["cut"]
    return state, moves


def test_splice_appends_at_end_vertex():
    state, moves = _splice_moves(build_dag(3, [(0, 1), (1, 2)]))
    assert state.paths == [[0, 1, 2]]
    assert moves == Counter(end=2)
    # per append: the end vertex found at its path's end, one vertex relabelled
    assert state.charge_counters()["repair_units"] == 4


def test_splice_exchanges_at_decreased_cross_edge():
    # 3 takes 0's unit on (0, 2); the cut-off [2] moves to the end vertex 1
    state, moves = _splice_moves(build_dag(4, [(0, 2), (1, 2), (0, 3)]))
    assert state.paths == [[0, 3], [1, 2]]
    assert state.path_of == [1, 2, 2, 1]
    assert moves == Counter(end=2, cut=1)


def test_splice_prepends_at_reverse_split():
    # 4 reaches the end vertex 1 back through a second unit on 2's split
    state, moves = _splice_moves(build_dag(5, [(0, 2), (1, 2), (2, 3), (2, 4)]))
    assert state.paths == [[0, 2, 3], [1, 2, 4]]
    assert state.split_f[2] == 2
    assert moves == Counter(end=3, prepend=1)


def test_splice_drops_head_at_slack_split():
    dag = gen_random_dag(40, 30, 0.5, 9)
    state, moves = _splice_moves(dag)
    assert moves["drop"] == 1 and moves["skip"] == 0
    assert len(state.paths) == oracle_width(dag)


def test_splice_skips_dropped_heads_own_first_step():
    dag = gen_random_dag(40, 12, 1.0, 0)
    state, moves = _splice_moves(dag)
    assert moves["drop"] == moves["skip"] == 2
    assert len(state.paths) == oracle_width(dag)


def _splice_dags():
    for n in range(2, 9):
        yield remark_family(n)  # every hub carries n units of split flow
    yield build_dag(36, DOUBLED_SPLIT_EDGES)
    for s in (1, 2, 3):
        yield gen_random_dag(300, 30, 0.5, s)


def test_splice_moves_on_structured_and_random_graphs():
    total = Counter()
    for variant in ("k2", "k3"):
        for dag in _splice_dags():
            state, moves = _splice_moves(dag, variant)
            assert len(state.paths) == oracle_width(dag), (variant, dag.n)
            assert moves["skip"] >= 0, (variant, dag.n)
            total += moves
    assert set(total) == {"end", "cut", "prepend", "drop", "skip"}


def test_splice_falls_back_to_a_region_scan():
    # both hints for the step (0, 2) name the path [1]; the scan finds [0, 2]
    dag = build_dag(4, [(0, 2), (1, 2), (0, 3)])
    state = SolverState(dag, "k3")
    for v in (0, 1, 2):
        state.insert_vertex(v, dag.in_adj[v])
    assert state.paths == [[0, 2], [1]]
    state.path_of[0] = state.path_of[2] = 2
    state.insert_vertex(3, dag.in_adj[3])
    assert state.paths == [[0, 3], [1, 2]]
    assert state.path_of[2] == 2 and state.path_of[3] == 1


def test_lookups_scan_only_the_parts_at_levels_from_l():
    state = _solved(remark_family(4), "k3")
    x = max(state.paths, key=len)[0]
    pid = state.path_of[x]
    l = state.lv[2 * x + 1]
    assert state._find(x, -1, l) == (pid, 0, len(state.paths[pid - 1]))
    with pytest.raises(InvariantViolation, match=f"^no stored path holds {x}$"):
        state._find(x, -1, l + 1)


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_repair_flags_path_without_decreased_step(variant):
    # the flow still carries (0, 2), but no stored path steps along it
    dag = build_dag(4, [(0, 2), (1, 2), (0, 3)])
    state = SolverState(dag, variant)
    for v in (0, 1, 2):
        state.insert_vertex(v, dag.in_adj[v])
    state.paths[:] = [[0], [1, 2]]
    with pytest.raises(InvariantViolation,
                       match=r"^no stored path steps along \(0, 2\)$"):
        state.insert_vertex(3, dag.in_adj[3])


def test_repair_units_stay_out_of_the_charged_total():
    charges = solve(gen_random_dag(300, 30, 0.5, 2)).charges
    assert charges["repair_units"] > 0
    assert charges["total_units"] == charges["traversal_units"] + charges["sparsify_units"]


# ------------------------------------------------------- level upkeep

def _two_levels_then_isolated():
    # 0 -> 1 ends in a merge that leaves only 1's out-half on level 1; the
    # isolated 2 then fails its search at l = 0 and moves no other code
    dag = build_dag(3, [(0, 1)])
    state = SolverState(dag, "k3", debug=True)
    for v in (0, 1):
        state.insert_vertex(v, dag.in_adj[v])
    return dag, state


def test_audit_flags_wrong_level_size():
    dag, state = _two_levels_then_isolated()
    state.size[1] += 1
    with pytest.raises(InvariantViolation, match=r"^size of level 1 wrong: 3 != 2$"):
        state.insert_vertex(2, dag.in_adj[2])


@pytest.mark.parametrize("code, message", [
    (4, "split edge of 2 decreases level"),
    (5, "slack split edge of 2 crosses levels"),
    (1, "cross edge 0 decreases level"),
    (6, "positive cross edge 2 crosses levels"),
])
def test_audit_flags_level_breaking_invariant_a(code, message):
    # 2 lies on both paths of {0, 1} -> 2 -> {3, 4}, so its split has slack,
    # and every code but the out-halves of 3 and 4 is on level 0. The
    # isolated 5 pops nothing, so the raised level reaches the audit as set.
    dag = build_dag(6, [(0, 2), (1, 2), (2, 3), (2, 4)])
    state = SolverState(dag, "k3", debug=True)
    for v in range(5):
        state.insert_vertex(v, dag.in_adj[v])
    assert state.split_f[2] == 2 and state.lv[code] == 0
    state.lv[code] = 1
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        state.insert_vertex(5, dag.in_adj[5])


def test_audit_flags_code_missing_from_its_bucket():
    dag, state = _two_levels_then_isolated()
    x = state.buckets[1].pop()
    assert state.lv[x] == 1
    with pytest.raises(InvariantViolation,
                       match="^bucket 1 does not hold its level's codes once$"):
        state.insert_vertex(2, dag.in_adj[2])


@pytest.mark.parametrize("corrupt, message", [
    (lambda st: st.in_codes[1].__setitem__(0, 3), "in-edge codes of 1 do not match its kept edges"),
    (lambda st: st.in_first.__setitem__(1, 1), "in-edge codes of 1 do not match its kept edges"),
    (lambda st: st.in_codes[0].append(1), "in-edge codes of 0 do not match its kept edges"),
    (lambda st: st.in_codes[1].pop(), "in-edge ranges do not hold every kept edge"),
    (lambda st: st.out_pos[0].clear(), "out-edge codes of 0 do not match its edges with flow"),
    (lambda st: st.out_pos[0].append(2), "out-edge codes of 0 do not match its edges with flow"),
    (lambda st: st.out_pos[1].append(2), "out-edge codes of 1 do not match its edges with flow"),
], ids=["wrong-code", "shifted-range", "stray-code", "missing-code", "lost-head",
        "doubled-head", "stray-head"])
def test_audit_flags_search_adjacency_out_of_step(corrupt, message):
    # the kept edge 0 -> 1 carries flow, so in_codes[1] == [1] from
    # in_first[1] == 0 and out_pos[0] == [2]; the isolated 2 reads neither
    dag, state = _two_levels_then_isolated()
    assert (state.in_first[1], state.in_codes[1], state.out_pos[0]) == (0, [1], [2])
    corrupt(state)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        state.insert_vertex(2, dag.in_adj[2])


def test_charged_region_counts_codes_at_levels_from_l():
    """charge_units is (|f| + 1) * popped + region per insertion, with the
    region recounted from the levels the merge has not yet shifted."""
    for dag in [remark_family(6)] + [gen_random_dag(300, 30, 0.5, s) for s in (1, 2, 3)]:
        state = SolverState(dag, "k3")
        repair = state._k3_repair
        regions = []

        def recounted(result, v, l):
            regions.append(sum(state.inserted[x >> 1] and state.lv[x] >= l
                               for x in range(2 * state.n)))
            repair(result, v, l)

        state._k3_repair = recounted
        expected = merges = 0
        for v in dag.topo:
            result = state.insert_vertex(v, dag.in_adj[v])
            # a failed search charges l = 0: every inserted code
            region = regions.pop() if result.found else 2 * state.count
            expected += (state.f_size + 1) * len(result._popped) + region
            merges += state.last_merge
        assert merges > 0 and not regions
        assert state.charge_units == expected, dag.n


def test_stale_bucket_entries_stay_bounded():
    # entries are appended two per insertion and one per sunk pop; only
    # merges drop stale ones
    dag = gen_random_dag(3000, 128, 0.5, 7)
    state = SolverState(dag, "k3")
    pops = 0
    for v in dag.topo:
        pops += len(state.insert_vertex(v, dag.in_adj[v])._popped)
    assert sum(map(len, state.buckets)) <= 2 * dag.n + pops
    assert sum(state.size) == 2 * dag.n


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_missing_split_flow(variant):
    state = _solved(corpus_instance(11), variant)
    hub = max(range(state.n), key=state.split_f.__getitem__)
    assert state.split_f[hub] >= 2
    state.split_f[hub] -= 1
    with pytest.raises(InvariantViolation, match="^stored paths do not match the split flow$"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_missing_cross_flow(variant):
    state = _solved(corpus_instance(11), variant)  # ends with three levels
    e = next(e for e in range(len(state.cross_f))
             if state.cross_f[e] > 0 and state.lv[2 * state.cross_head[e]] >= 1)
    tail, head = state.cross_tail[e], state.cross_head[e]
    state.cross_f[e] -= 1
    with pytest.raises(InvariantViolation,
                       match=rf"^stored paths do not match the flow on \({tail}, {head}\)$"):
        state.result()


# ------------------------------------------------------- result

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

    def in_edges(h):
        return range(state.in_first[h], state.in_first[h] + len(state.in_codes[h]))

    h = next(h for h in range(state.n)
             if not state.srcin_f[h] and any(state.cross_f[e] for e in in_edges(h)))
    e = [e for e in in_edges(h) if state.cross_f[e]][-1]
    state.cross_f[e] += 1
    uv = rf"\({state.cross_tail[e]}, {h}\)"
    with pytest.raises(InvariantViolation, match=f"^stored paths do not match the flow on {uv}$"):
        state.result()


@pytest.mark.parametrize("variant", ["k2", "k3"])
def test_result_flags_sink_and_size_mismatch(variant):
    state = _solved(remark_family(4), variant)
    inner = next(v for v in range(state.n) if not state.outsink_f[v])
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


# ------------------------------------------------- kernel and step route

def _snapshot(state):
    """Everything a solve leaves in its state, buckets as their live codes."""
    lv = state.lv
    return {
        "charges": state.charge_counters(), "paths": state.paths,
        "path_of": state.path_of, "cross_tail": state.cross_tail,
        "cross_head": state.cross_head, "cross_f": state.cross_f,
        "in_first": state.in_first, "in_codes": state.in_codes,
        "out_pos": state.out_pos, "split_f": state.split_f,
        "srcin_f": state.srcin_f, "outsink_f": state.outsink_f, "lv": lv,
        "size": state.size, "cut_demand": state.cut_demand,
        "live": [sorted(x for x in b if lv[x] == j) for j, b in enumerate(state.buckets)],
        "f_size": state.f_size, "count": state.count,
        "inserted": state.inserted, "last_merge": state.last_merge,
    }


def _solve_keeping_state(dag, variant, monkeypatch):
    """solve(dag) with its SolverState kept; the factory replaces nothing,
    so solve runs the kernel."""
    made = []

    def make(*args, **kwargs):
        made.append(SolverState(*args, **kwargs))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(incremental, "SolverState", make)
        result = solve(dag, variant)
    return made[0], result


def _kernel_dags():
    for seed in range(1000):
        yield corpus_instance(seed)  # criterion 1's corpus
    yield remark_family(8)
    yield _complete_bipartite_layers([12] * 5)
    yield _complete_bipartite_layers([3, 16, 1, 9, 16, 5])
    for s in (1, 2, 3):
        yield gen_random_dag(3000, 128, 0.5, s)  # many general-route insertions


def test_kernel_ends_in_the_step_routes_state(monkeypatch):
    for dag in _kernel_dags():
        for variant in ("k2", "k3"):
            kernel, result = _solve_keeping_state(dag, variant, monkeypatch)
            step = _solved(dag, variant)
            assert _snapshot(kernel) == _snapshot(step), (dag.n, variant)
            expected = step.result()
            assert result.cover.paths == expected.cover.paths
            assert result.levels == expected.levels
            assert result.charges == expected.charges


@pytest.mark.parametrize("make, pops, charges, cover_digest, search_digest, steps_digest",
                         PINNED_TRAVERSALS, ids=["remark-8", "random-2000"])
def test_kernel_matches_recorded_counts(make, pops, charges, cover_digest,
                                        search_digest, steps_digest, monkeypatch):
    # the kernel never runs insert_vertex
    monkeypatch.setattr(SolverState, "insert_vertex", None)
    result = solve(make())
    assert result.charges == charges
    assert _digest(result.cover.paths) == cover_digest


def _count_searches(monkeypatch):
    """Count SolverState._search calls; replacing it on the class leaves
    solve's routing alone. The step route searches once per insertion, the
    kernel only off its one-pop route."""
    calls = Counter()
    search = SolverState._search

    def counted(self, v):
        calls["search"] += 1
        return search(self, v)

    monkeypatch.setattr(SolverState, "_search", counted)
    return calls


ROUTING_DAG = remark_family(8)  # one insertion in five pops once


def test_kernel_skips_searches_on_one_pop_insertions(monkeypatch):
    calls = _count_searches(monkeypatch)
    solve(ROUTING_DAG)
    assert 0 < calls["search"] < ROUTING_DAG.n


@pytest.mark.parametrize("kwargs", [{"debug": True}, {"trace": True}, {}],
                         ids=["debug", "trace", "env"])
def test_debug_and_trace_take_the_step_route(kwargs, monkeypatch, capsys):
    monkeypatch.setenv("DAGWIDTH_DEBUG", "0" if kwargs else "1")
    calls = _count_searches(monkeypatch)
    solve(ROUTING_DAG, **kwargs)
    assert calls["search"] == ROUTING_DAG.n
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == (0 if "debug" in kwargs else ROUTING_DAG.n)


@pytest.mark.parametrize("hook", sorted(incremental._STEP_HOOKS))
def test_replaced_step_takes_the_step_route(hook, monkeypatch):
    # a factory patched into the module, as the benchmark's tracer does it
    calls = Counter()

    def make(*args, **kwargs):
        state = SolverState(*args, **kwargs)
        original = getattr(state, hook)

        def counted(*a):
            calls[hook] += 1
            return original(*a)

        setattr(state, hook, counted)
        return state

    monkeypatch.setattr(incremental, "SolverState", make)
    result = solve(ROUTING_DAG)
    assert result.cover.size == oracle_width(ROUTING_DAG)
    # found paths only: a failed search adds a path without the flow update
    expected = {"_apply_flow_deltas": ROUTING_DAG.n - result.cover.size,
                "_k3_repair": ROUTING_DAG.n - result.cover.size}
    assert calls[hook] == expected.get(hook, ROUTING_DAG.n)


def _hand_made_dag(n, in_adj, topo):
    out_adj = [[] for _ in range(n)]
    for v, us in enumerate(in_adj):
        for u in us:
            if 0 <= u < n:
                out_adj[u].append(v)
    pos = [0] * n
    for i, v in enumerate(topo):
        pos[v] = i
    return Dag(n, out_adj, in_adj, topo, pos)


def _run_both_routes(dag, error):
    """Raise error on both routes; their messages and states must agree."""
    outcomes = []
    for state in (SolverState(dag), SolverState(dag)):
        with pytest.raises(error) as info:
            if outcomes:
                for v in dag.topo:
                    state.insert_vertex(v, dag.in_adj[v])
            else:
                state._insert_all(dag.topo, dag.in_adj)
        outcomes.append((str(info.value), _snapshot(state)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


D4_IN = [[], [0], [0], [1, 2]]


@pytest.mark.parametrize("in_adj, topo, message", [
    (D4_IN, [0, 3, 1, 2], "in-neighbor 1 of 3 not yet inserted"),
    (D4_IN, [0, 1, 1, 2, 3], "vertex 1 inserted twice"),
    ([[], [0, 7], [0], [1, 2]], [0, 1, 2, 3], "in-neighbor 7 of 1 out of range"),
    ([[], [0], [-1, 0], [1, 2]], [0, 1, 2, 3], "in-neighbor -1 of 2 out of range"),
], ids=["before-in-neighbour", "twice", "past-the-end", "negative"])
def test_kernel_raises_the_step_routes_order_violation(in_adj, topo, message):
    dag = _hand_made_dag(4, in_adj, topo)
    assert _run_both_routes(dag, OrderViolation) == message
    with pytest.raises(OrderViolation, match=f"^{message}$"):
        solve(dag)


@pytest.mark.parametrize("bad", [5, 0])
def test_kernel_rejects_out_of_range_path_id(chain10, bad):
    # as test_sparsify_in_rejects_out_of_range_path_id, through the kernel
    messages = []
    for route in ("kernel", "step"):
        state = SolverState(chain10, "k2")
        state._insert_all([0], chain10.in_adj)
        state.path_of[0] = bad
        with pytest.raises(BadPathId) as info:
            if route == "kernel":
                state._insert_all([1], chain10.in_adj)
            else:
                state.insert_vertex(1, [0])
        messages.append((str(info.value), _snapshot(state)))
    assert messages[0] == messages[1]
    assert messages[0][0] == f"path id {bad} outside [1, 1]"


def test_kernel_one_pop_with_a_missed_path_hint():
    # 2's in-neighbour 0 ends path 1, but path_of[0] names path 2, which
    # ends at 1: the kernel's one-pop route hands the splice to _k3_repair,
    # whose lookup scans past the hint
    dag = _hand_made_dag(3, [[], [], [0]], [0, 1, 2])
    snapshots = []
    for route in ("kernel", "step"):
        state = SolverState(dag, "k2")
        if route == "kernel":
            state._insert_all([0, 1], dag.in_adj)
            state.path_of[0] = 2
            state._insert_all([2], dag.in_adj)
        else:
            for v in (0, 1):
                state.insert_vertex(v, dag.in_adj[v])
            state.path_of[0] = 2
            assert state.insert_vertex(2, [0])._popped == [1]
        snapshots.append(_snapshot(state))
        result = state.result()
        assert result.cover.paths == [[0, 2], [1]]
        assert validate_cover(dag, result.cover).ok
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["charges"]["repair_units"] == 3  # a hit would count 2
