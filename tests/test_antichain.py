from __future__ import annotations

import pytest

from dagwidth import (PathCover, build_dag, chain_cover_from_mpc,
                      flow_from_cover, max_antichain, max_antichain_from_flow,
                      oracle_width, reaches, reduce, remark_family, solve)
from dagwidth.errors import NotACover, NotMinimum
from tests.conftest import corpus_instance, dense_cover


def test_antichain_d4_is_unique(d4):
    cover = PathCover([[0, 1, 3], [0, 2, 3]])
    assert max_antichain(d4, cover) == {1, 2}


def test_antichain_chain_single_vertex(chain10):
    members = max_antichain(chain10, PathCover([list(range(10))]))
    assert len(members) == 1


def test_antichain_remark_three():
    fam = remark_family(3)
    members = max_antichain(fam, solve(fam).cover)
    assert len(members) == 3
    members = sorted(members)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not reaches(fam, a, b) and not reaches(fam, b, a)


def test_antichain_rejects_non_minimum_cover(d4):
    oversized = PathCover([[0, 1, 3], [2], [0, 2, 3]])
    with pytest.raises(NotMinimum):
        max_antichain(d4, oversized)


def test_antichain_from_solver_flow(d4):
    result = solve(d4)
    assert max_antichain_from_flow(result.network, result.flow) == {1, 2}


def _reference_antichain(dag, cover):
    """The same sweep on a FlowNetwork and the cover's Flow."""
    net = reduce(dag)
    return max_antichain_from_flow(net, flow_from_cover(net, cover))


def _antichain_dags():
    for seed in range(200):
        yield corpus_instance(seed)
    for n in range(2, 7):
        yield remark_family(n)


def test_antichain_matches_flow_reference():
    for dag in _antichain_dags():
        for variant in ("k2", "k3"):
            cover = solve(dag, variant).cover
            members = max_antichain(dag, cover)
            assert members == _reference_antichain(dag, cover), (dag, variant)
            assert len(members) == cover.size


def test_antichain_rejects_non_minimum_like_reference():
    # redundant covers: some are still minimum, most admit a decrementing path
    rejected = 0
    for seed in range(100):
        dag = corpus_instance(seed)
        cover = dense_cover(dag, seed)
        try:
            want = _reference_antichain(dag, cover)
        except NotMinimum:
            rejected += 1
            with pytest.raises(NotMinimum):
                max_antichain(dag, cover)
        else:
            assert max_antichain(dag, cover) == want, seed
    assert rejected > 50


def test_antichain_rejects_singleton_covers():
    checked = 0
    for seed in range(100):
        dag = corpus_instance(seed)
        singletons = PathCover([[v] for v in range(dag.n)])
        if oracle_width(dag) < dag.n:
            checked += 1
            with pytest.raises(NotMinimum):
                max_antichain(dag, singletons)
        else:  # no edges: the singletons are the minimum cover
            assert max_antichain(dag, singletons) == set(range(dag.n))
    assert checked > 80


def test_antichain_rejects_cover_missing_a_vertex(d4):
    with pytest.raises(NotACover):
        max_antichain(d4, PathCover([[0, 1, 3]]))
    dag = remark_family(3)
    cover = solve(dag).cover
    with pytest.raises(NotACover):
        max_antichain(dag, PathCover([p for p in cover.paths if 0 not in p]))


def test_chain_cover_d4(d4):
    chains = chain_cover_from_mpc(d4, PathCover([[0, 1, 3], [0, 2, 3]]))
    assert chains.paths == [[0, 1, 3], [2]]


def test_chain_cover_disjoint_unchanged(d4):
    cover = PathCover([[0, 1], [2, 3]])
    assert chain_cover_from_mpc(d4, cover).paths == [[0, 1], [2, 3]]


def test_chain_cover_rejects_non_cover(d4):
    with pytest.raises(NotACover):
        chain_cover_from_mpc(d4, PathCover([[0, 1, 3]]))


@pytest.mark.parametrize("seed", [8, 44, 212, 590])
def test_chain_cover_properties(seed):
    dag = corpus_instance(seed)
    cover = solve(dag).cover
    chains = chain_cover_from_mpc(dag, cover)
    assert chains.size == cover.size
    seen: set[int] = set()
    for chain in chains.paths:
        assert chain, "no chain may empty while dropping repeats"
        for v in chain:
            assert v not in seen
            seen.add(v)
        for a, b in zip(chain, chain[1:]):
            assert reaches(dag, a, b)
    assert len(seen) == dag.n
