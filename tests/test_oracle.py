from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagwidth import (PathCover, build_dag, gen_random_dag,
                      oracle_max_antichain, oracle_width, solve, validate_cover)
from dagwidth.errors import TooLarge


def test_width_d4(d4):
    assert oracle_width(d4) == 2


def test_width_chain(chain10):
    assert oracle_width(chain10) == 1


def test_width_isolated():
    assert oracle_width(build_dag(6, [])) == 6


def test_width_too_large():
    with pytest.raises(TooLarge):
        oracle_width(build_dag(501, []))


def test_antichain_d4(d4):
    assert oracle_max_antichain(d4) == 2


def test_antichain_chain(chain10):
    assert oracle_max_antichain(chain10) == 1


def test_antichain_too_large():
    with pytest.raises(TooLarge):
        oracle_max_antichain(build_dag(21, []))


def test_duality_small_random():
    for seed in range(25):
        dag = gen_random_dag(12, 1 + seed % 5, 1.0, seed=seed)
        assert oracle_max_antichain(dag) == oracle_width(dag)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.data())
def test_duality_property(n, data):
    pairs = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]),
        max_size=2 * n)
    dag = build_dag(n, data.draw(pairs))
    assert oracle_max_antichain(dag) == oracle_width(dag)


def test_validate_cover_ok(d4):
    report = validate_cover(d4, PathCover([[0, 1, 3], [0, 2, 3]]))
    assert report.ok and report.violations == []


def test_validate_cover_uncovered(d4):
    report = validate_cover(d4, PathCover([[0, 1, 3]]))
    assert "uncovered: 2" in report.violations


def test_validate_cover_non_edge(d4):
    report = validate_cover(d4, PathCover([[0, 3], [1], [2]]))
    assert "not an edge: (0, 3)" in report.violations


def _violations_step_by_step(dag, paths):
    """validate_cover's violations, listed by a plain walk over every path."""
    out = []
    covered = set()
    for idx, path in enumerate(paths):
        if not path:
            out.append(f"empty path at index {idx}")
            continue
        for v in path:
            if 0 <= v < dag.n:
                covered.add(v)
            else:
                out.append(f"unknown vertex: {v}")
        for u, v in zip(path, path[1:]):
            if 0 <= u < dag.n and 0 <= v < dag.n and (u, v) not in dag.edges():
                out.append(f"not an edge: ({u}, {v})")
    out += [f"uncovered: {v}" for v in range(dag.n) if v not in covered]
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.integers(0, 40), st.data())
def test_validate_cover_lists_every_violation(n, seed, data):
    dag = gen_random_dag(n, 1 + seed % n, 1.0, seed) if n else build_dag(0, [])
    vertex = st.integers(-2, n + 1) if data.draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    if data.draw(st.booleans()) and n:
        # a valid cover, perhaps with one vertex dropped or one step bent
        paths = [list(p) for p in solve(dag, "k2").cover.paths]
        if data.draw(st.booleans()):
            path = data.draw(st.sampled_from(paths))
            path[data.draw(st.integers(0, len(path) - 1))] = data.draw(vertex)
    else:
        paths = data.draw(st.lists(st.lists(vertex, max_size=5), max_size=6))
    report = validate_cover(dag, PathCover(paths))
    assert report.violations == _violations_step_by_step(dag, paths)
    assert report.ok == (report.violations == [])
