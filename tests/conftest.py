"""Shared fixtures: the frozen random corpus and a few small graphs."""
from __future__ import annotations

import random

import pytest

from dagwidth import build_dag, gen_random_dag, oracle_width

CORPUS_SIZE = 1000


def corpus_params(seed: int) -> tuple[int, int, float, int]:
    """Frozen instance parameters: (n, k_target, extra_edge_factor, gen_seed)."""
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    k = rng.randint(1, min(8, n))
    extra = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])
    return n, k, extra, seed * 7 + 1


def corpus_instance(seed: int):
    n, k, extra, gen_seed = corpus_params(seed)
    return gen_random_dag(n, k, extra, gen_seed)


@pytest.fixture(scope="session")
def corpus():
    """The 1000 frozen random DAGs with their oracle widths."""
    out = []
    for seed in range(CORPUS_SIZE):
        dag = corpus_instance(seed)
        out.append((seed, dag, oracle_width(dag)))
    return out


def complete_bipartite_layers(sizes):
    """Layers of the given sizes, each joined to the next by all edges."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = [(u, v) for i in range(len(sizes) - 1)
             for u in range(starts[i], starts[i + 1])
             for v in range(starts[i + 1], starts[i + 2])]
    return build_dag(starts[-1], edges)


def dense_cover(dag, seed: int):
    """A deliberately redundant cover: random paths with heavy edge reuse.

    Solver MPCs are usually too lean to contain red cycles, so support
    sparsification is also exercised on these.
    """
    from dagwidth import PathCover

    rng = random.Random(seed)

    def random_path_through(v: int) -> list[int]:
        path = [v]
        cur = v
        while dag.out_adj[cur] and rng.random() < 0.9:
            cur = rng.choice(dag.out_adj[cur])
            path.append(cur)
        cur = v
        while dag.in_adj[cur] and rng.random() < 0.9:
            cur = rng.choice(dag.in_adj[cur])
            path.insert(0, cur)
        return path

    paths = []
    covered: set[int] = set()
    for v in range(dag.n):
        if v not in covered:
            p = random_path_through(v)
            covered.update(p)
            paths.append(p)
    for _ in range(dag.n // 3):
        paths.append(random_path_through(rng.randrange(dag.n)))
    return PathCover(paths)


@pytest.fixture
def d4():
    """Diamond: 0 -> {1, 2} -> 3, width 2."""
    return build_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def t3():
    """Transitive triangle 0 -> 1 -> 2 plus shortcut (0, 2)."""
    return build_dag(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def chain10():
    return build_dag(10, [(i, i + 1) for i in range(9)])
