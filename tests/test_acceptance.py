"""Acceptance gate: one test per criterion, each printing a PASS line.

The corpus is the frozen 1000-instance family from conftest (n in [1, 60],
chain parameter in [1, 8], mixed edge densities, fixed seeds).
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from dagwidth import (PathCover, max_antichain_from_flow,
                      oracle_max_antichain, remark_family, shrink, solve,
                      splice, thin, validate_cover)
from dagwidth.cli import main
from dagwidth.oracle import closure_masks
from dagwidth.sparsify import sparsify_all
from dagwidth.thinning import cover_support


@pytest.fixture(scope="module")
def solved_corpus(corpus):
    """Solve results for the whole corpus, shared across criteria."""
    return [(seed, dag, width, solve(dag)) for seed, dag, width in corpus]


@pytest.fixture(scope="module")
def thinned_corpus(solved_corpus):
    """Thinned covers plus per-pass potential records for criteria 7 and 10.

    Each instance is thinned twice: once from its MPC and once from a
    redundant random cover, whose richer support actually contains red
    cycles to eliminate.
    """
    from tests.conftest import dense_cover
    out = []
    for seed, dag, width, result in solved_corpus:
        for cover in (result.cover, dense_cover(dag, seed)):
            record: list = []
            thinned = thin(dag, cover, instrument=record)
            out.append((seed, dag, cover, thinned, record))
    return out


def test_criterion_1_solver_matches_oracle(corpus):
    t0 = time.time()
    for seed, dag, width in corpus:
        for variant in ("k2", "k3"):
            result = solve(dag, variant=variant)
            assert result.cover.size == width, (seed, variant)
            assert validate_cover(dag, result.cover).ok, (seed, variant)
    elapsed = time.time() - t0
    print(f"[criterion 1] PASS: 1000 instances x2 variants match the oracle "
          f"exactly ({elapsed:.1f} s)")


def test_criterion_2_dilworth_duality(solved_corpus):
    for seed, dag, width, result in solved_corpus:
        members = max_antichain_from_flow(result.network, result.flow)
        assert len(members) == result.cover.size == width, seed
        reach = closure_masks(dag)
        ordered = sorted(members, key=dag.topo_pos.__getitem__)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                assert not (reach[a] >> b) & 1, (seed, a, b)
        if dag.n <= 15:
            assert len(members) == oracle_max_antichain(dag), seed
    print("[criterion 2] PASS: antichain size equals cover size on 1000 "
          "instances; exhaustive check below n=16")


def test_criterion_3_invariant_audit(corpus, monkeypatch):
    monkeypatch.setenv("DAGWIDTH_DEBUG", "1")
    audited = 0
    for seed, dag, width in corpus[:200]:
        for variant in ("k2", "k3"):
            result = solve(dag, variant=variant, debug=None, trace=False)
            assert result.cover.size == width, (seed, variant)
        audited += 1
    assert audited == 200
    print("[criterion 3] PASS: invariants A, B, C audited after every "
          "insertion on 200 instances x2 variants, zero violations")


def test_criterion_4_charging_bound(corpus):
    worst = 0.0
    for seed, dag, width in corpus:
        bound = 8 * width * width * dag.n + dag.m
        for variant in ("k2", "k3"):
            units = solve(dag, variant=variant).charges["total_units"]
            assert units <= bound, (seed, variant, units, bound)
            if bound:
                worst = max(worst, units / bound)
    print(f"[criterion 4] PASS: charged work within 8*k^2*n + |E| on every "
          f"instance and variant (worst fill {worst:.2f})")


def test_criterion_5_bench_scaling(tmp_path):
    out = tmp_path / "bench.csv"
    t0 = time.time()
    rc = main(["bench", "--k", "4", "--sizes", "10000,20000,40000",
               "--extra", "2.0", "--repeats", "5", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3
    times = [float(row.split(",")[4]) for row in rows]
    elapsed = time.time() - t0
    ratios = [b / a for a, b in zip(times, times[1:])]
    for ratio in ratios:
        assert ratio <= 2.5, (times, ratios)
    print(f"[criterion 5] PASS: medians {['%.0f ms' % t for t in times]}, "
          f"doubling ratios {['%.2f' % r for r in ratios]} <= 2.5 "
          f"({elapsed:.1f} s)")


def test_criterion_6_transitive_sparsification(solved_corpus):
    for seed, dag, width, result in solved_corpus[:200]:
        sparse = sparsify_all(dag, result.cover)
        assert closure_masks(sparse) == closure_masks(dag), seed
        assert max((len(a) for a in sparse.in_adj), default=0) <= width, seed
    print("[criterion 6] PASS: reachability matrices identical and "
          "in-degrees within the width on 200 instances")


def _structure_audit(mu: dict) -> None:
    degree: dict[int, int] = {}
    for u, v in mu:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    red = {v for v, d in degree.items() if d > 2}
    parent = {v: v for v in red}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in mu:
        if u in red and v in red:
            ru, rv = find(u), find(v)
            assert ru != rv, "red edges contain a cycle"
            parent[ru] = rv
    blue_degree: dict[int, int] = {}
    for u, v in mu:
        if u not in red and v not in red:
            blue_degree[u] = blue_degree.get(u, 0) + 1
            blue_degree[v] = blue_degree.get(v, 0) + 1
    for v, d in blue_degree.items():
        assert d <= 2, "blue subgraph is not disjoint paths and cycles"


def test_criterion_7_support_sparsification(thinned_corpus):
    for seed, dag, cover, thinned, record in thinned_corpus:
        assert thinned.size == cover.size, seed
        assert validate_cover(dag, thinned).ok, seed
        mu = cover_support(thinned)
        assert dag.n == 0 or len(mu) < 2 * dag.n, seed
        _structure_audit(mu)
    for n in range(2, 9):
        fam = remark_family(n)
        thinned = thin(fam, solve(fam).cover)
        ratio = Fraction(len(cover_support(thinned)), fam.n)
        assert ratio == 2 - Fraction(4, n + 2), n
    print("[criterion 7] PASS: thinning valid with <2n distinct edges and "
          "clean structure on 1000 instances; tight-family ratios exact")


def test_criterion_8_splicing(solved_corpus):
    rng = random.Random(2024)
    usable = [(dag, res.cover) for _, dag, _, res in solved_corpus if dag.m > 0]
    checked = 0
    idx = 0
    while checked < 100:
        dag, cover = usable[idx % len(usable)]
        idx += 1
        mu = cover_support(cover)
        edges = list(mu)
        d = list(edges[rng.randrange(len(edges))])
        while rng.random() < 0.7:
            nxt = [e for e in edges if e[0] == d[-1] and e[1] not in d]
            if not nxt:
                break
            d.append(nxt[rng.randrange(len(nxt))][1])
        result = splice(cover, d)
        assert result.size == cover.size
        assert cover_support(result) == mu
        assert any(d == p[i:i + len(d)]
                   for p in result.paths for i in range(len(p)))
        checked += 1
    print("[criterion 8] PASS: 100 randomized splices preserve "
          "multiplicities pointwise and embed the target contiguously")


def test_criterion_9_shrinking(corpus):
    for seed, dag, width in corpus[:200]:
        trivial = PathCover([[v] for v in range(dag.n)])
        result = shrink(dag, trivial)
        assert result.size == width, seed
        assert validate_cover(dag, result).ok, seed
        # one decrementing path per removed path
        assert dag.n - result.size == dag.n - width
    print("[criterion 9] PASS: 200 trivial covers shrink to oracle width "
          "with n - width decrementing paths")


def test_criterion_10_phi_monotonicity(thinned_corpus):
    passes = 0
    for seed, dag, cover, thinned, record in thinned_corpus:
        for delta_phi, cycle_len, _ in record:
            assert delta_phi >= cycle_len, (seed, delta_phi, cycle_len)
            passes += 1
    assert passes > 0
    print(f"[criterion 10] PASS: potential grew by at least the cycle "
          f"length in all {passes} elimination passes")
