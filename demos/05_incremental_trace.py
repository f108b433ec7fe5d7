"""Watching the incremental solver maintain levels and layered cuts.

Each topological insertion either extends the cover (no decrementing path)
or reroutes one unit of flow; visited vertices sink to the smallest visited
level and tied cut demands trigger a merge.
"""
from dagwidth import build_dag
from dagwidth.incremental import SolverState

dag = build_dag(8, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7),
                    (6, 7)])
state = SolverState(dag, "k2", debug=True)

print(f"{'insert':>6} {'found':>6} {'level':>6} {'|f|':>4} {'cuts':>12} "
      f"{'ends'}")
for v in dag.topo:
    result = state.insert_vertex(v, dag.in_adj[v])
    print(f"{v:>6} {str(result.found):>6} {result.min_level:>6} "
          f"{state.f_size:>4} {str(state.cut_demand):>12} "
          f"{[u for u in range(dag.n) if state.outsink_f[u]]}")

final = state.result()
print(f"\nfinal cover ({final.cover.size} paths):")
for path in final.cover.paths:
    print("  " + " -> ".join(map(str, path)))
print(f"levels of split halves: in={final.levels.level_in} "
      f"out={final.levels.level_out}")
