"""Minimum path cover of a small DAG, solved incrementally.

Builds the diamond graph, solves it, and double-checks the answer against
the brute-force width oracle. The variant names "k2" and "k3" run the same
solver, so either gives this cover.
"""
from dagwidth import build_dag, oracle_width, solve

dag = build_dag(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)])
print(f"graph: {dag.n} vertices, {dag.m} edges, topo order {dag.topo}")
print(f"brute-force width: {oracle_width(dag)}")

result = solve(dag)
assert result.cover.paths == solve(dag, variant="k3").cover.paths
print(f"\ncover size {result.cover.size}")
for i, path in enumerate(result.cover.paths, start=1):
    print(f"  path {i}: {' -> '.join(map(str, path))}")
print(f"  flow size {result.flow.size}, "
      f"cut demands {result.levels.cut_demand}")
print(f"  charged work: {result.charges['total_units']} units")
