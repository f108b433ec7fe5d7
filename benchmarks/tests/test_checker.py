"""The output checker accepts correct outputs and rejects each kind of corruption."""
from benchmarks import checker as ck

# diamond 0 -> {1, 2} -> 3, width 2
DIAMOND = ck.Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
MPC = [[0, 1, 3], [2]]


def test_accepts_a_minimum_cover_with_its_antichain():
    assert ck.cover_problems(DIAMOND, MPC) == []
    assert ck.antichain_problems(DIAMOND, [1, 2], len(MPC)) == []
    assert ck.chain_problems(DIAMOND, [[0, 1, 3], [2]], MPC, 2) == []


def test_rejects_a_non_minimal_cover():
    cover = [[0, 1], [2], [3]]
    assert ck.cover_problems(DIAMOND, cover) == []
    # the largest antichain has two vertices, so three paths cannot be certified
    assert ck.antichain_problems(DIAMOND, [1, 2], len(cover))


def test_rejects_an_invalid_cover():
    assert ck.cover_problems(DIAMOND, [[0, 3], [1], [2]])      # (0, 3) is no edge
    assert ck.cover_problems(DIAMOND, [[0, 1, 3]])             # 2 uncovered


def test_rejects_a_comparable_antichain_pair():
    assert ck.antichain_problems(DIAMOND, [0, 3], 2)
    chain = ck.Graph(3, [(0, 1), (1, 2)])
    assert ck.antichain_problems(chain, [2, 0], 2)  # 0 reaches 2 through 1


def test_rejects_overlapping_or_broken_chains():
    assert ck.chain_problems(DIAMOND, [[0, 1, 3], [2, 3]], MPC, 2)
    assert ck.chain_problems(DIAMOND, [[0, 1], [2]], MPC, 2)     # 3 uncovered
    assert ck.chain_problems(DIAMOND, [[0, 3, 1], [2]], MPC, 2)  # 3 does not reach 1
    assert ck.chain_problems(DIAMOND, [[1, 2], [0, 3]], MPC, 2)  # 1 does not reach 2


def test_rejects_a_bad_sparsification():
    assert ck.sparsified_problems(DIAMOND, ck.Graph(4, [(0, 1), (1, 3), (0, 2)]), MPC, 2) == []
    assert ck.sparsified_problems(DIAMOND, ck.Graph(4, [(0, 1), (0, 2)]), MPC, 2)  # cover breaks
    assert ck.sparsified_problems(DIAMOND, ck.Graph(4, [(0, 1), (1, 3), (0, 2), (0, 3)]),
                                  MPC, 2)  # (0, 3) is no input edge


def test_rejects_a_thinned_support_of_2n_edges():
    # complete DAG on 5 vertices; these paths use all 10 = 2n of its edges
    full = ck.Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    paths = [[0, 1, 2, 3, 4], [0, 2, 4], [0, 3], [1, 3], [1, 4], [0, 4]]
    assert ck.cover_problems(full, paths) == []
    assert ck.thinned_problems(full, paths, len(paths))
    lean = [[0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 4], [0, 4]]
    assert ck.thinned_problems(full, lean, len(paths)) == []
    assert ck.thinned_problems(full, lean[:-1], len(paths))  # size changed


def test_rejects_a_support_list_that_is_not_the_cover_support():
    support = ck.Graph(4, [(0, 1), (1, 3)])
    assert ck.thinned_problems(DIAMOND, MPC, 2, support) == []
    assert ck.thinned_problems(DIAMOND, MPC, 2, ck.Graph(4, [(0, 1)]))


def test_parsers_reject_malformed_text():
    for bad in ("", "2 1\n", "2 1\n0 0\n", "2 1\n0 5\n", "2 2\n0 1\n0 1\n"):
        try:
            ck.parse_graph(bad)
        except ck.CheckError:
            continue
        raise AssertionError(f"accepted {bad!r}")
    try:
        ck.parse_paths("2\n0 1\n")
    except ck.CheckError:
        pass
    else:
        raise AssertionError("accepted a wrong path count")
