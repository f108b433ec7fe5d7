"""Seeded inputs, the op of each workload, and the checks of its outputs.

Inputs are generated here, not by the library, and reach it only as text.
The random family follows dagwidth.gen_random_dag step for step, so a seed
gives the same graph; the redundant covers follow the test suite's
dense_cover. One op is one user request: one graph in as text, every
output out as text.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import checker as ck

NARROW_N = 10_000
NARROW_K = (2, 4, 8)
NARROW_EXTRA = (0.5, 2.0, 8.0)
WIDE_N, WIDE_K, WIDE_EXTRA, WIDE_GRAPHS = 3_000, 128, 0.5, 8
THIN_N, THIN_EXTRA, THIN_GRAPHS = 2_000, 2.0, 16


# ------------------------------------------------------------------ inputs

def random_dag(n: int, k_target: int, extra: float, seed: int) -> list[list[int]]:
    """Sorted out-adjacency of a DAG of width <= k_target.

    A shuffled vertex order is cut into k_target chains, then extra * n
    random forward edges are added.
    """
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), k_target - 1)) if k_target > 1 else []
    bounds = [0] + cuts + [n]
    out: list[set[int]] = [set() for _ in range(n)]
    for a, b in zip(bounds, bounds[1:]):
        for i in range(a, b - 1):
            out[perm[i]].add(perm[i + 1])
    for _ in range(int(extra * n)):
        i, j = sorted(rng.sample(range(n), 2))
        out[perm[i]].add(perm[j])
    return [sorted(s) for s in out]


def in_adjacency(out_adj: list[list[int]]) -> list[list[int]]:
    in_adj: list[list[int]] = [[] for _ in out_adj]
    for u, heads in enumerate(out_adj):
        for v in heads:
            in_adj[v].append(u)
    return in_adj


def dense_cover(out_adj: list[list[int]], seed: int) -> list[list[int]]:
    """A deliberately redundant cover: random paths with heavy edge reuse,
    one through every vertex not yet covered, then n // 3 more."""
    in_adj = in_adjacency(out_adj)
    n = len(out_adj)
    rng = random.Random(seed)

    def random_path_through(v: int) -> list[int]:
        path = [v]
        cur = v
        while out_adj[cur] and rng.random() < 0.9:
            cur = rng.choice(out_adj[cur])
            path.append(cur)
        cur = v
        while in_adj[cur] and rng.random() < 0.9:
            cur = rng.choice(in_adj[cur])
            path.insert(0, cur)
        return path

    paths = []
    covered: set[int] = set()
    for v in range(n):
        if v not in covered:
            p = random_path_through(v)
            covered.update(p)
            paths.append(p)
    for _ in range(n // 3):
        paths.append(random_path_through(rng.randrange(n)))
    return paths


def edge_list_text(out_adj: list[list[int]]) -> str:
    lines = [f"{len(out_adj)} {sum(map(len, out_adj))}"]
    lines.extend(f"{u} {v}" for u, heads in enumerate(out_adj) for v in heads)
    return "\n".join(lines) + "\n"


def paths_text(paths: list[list[int]]) -> str:
    return "\n".join([str(len(paths))] + [" ".join(map(str, p)) for p in paths]) + "\n"


@dataclass
class Input:
    key: tuple          # identifies the input and variant for output checks
    n: int
    graph: str          # edge-list text
    variant: str = "k2"
    cover: str = ""     # path-cover text (thin-dense only)


# ---------------------------------------------------------------- workloads

class Direct:
    """Calls straight through; the traced run passes a Tracer instead."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, k=1):
        pass


def _support_text(n: int, support) -> str:
    edges = sorted(support)
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


class Workload:
    name = ""
    why = ""

    def inputs(self, seed: int) -> list[Input]:
        """The op inputs, in the fixed order a run cycles through."""
        raise NotImplementedError

    def warmup(self, seed: int) -> Input:
        raise NotImplementedError

    def op(self, lib, calls, inp: Input) -> dict:
        raise NotImplementedError

    def check(self, lib, inp: Input, out: dict, done: dict) -> list[str]:
        """Problems with one op's outputs; done holds earlier checked ops'
        outputs by input key, for checks across ops."""
        raise NotImplementedError


def _roundtrip(lib, out: dict) -> list[str]:
    """Outputs parse back through dagwidth.io into the objects returned."""
    problems = []
    io = lib.io
    for key in ("mpc", "mcc", "thin_cover"):
        if key in out and io.parse_path_cover(out[key]).paths != out["obj"][key].paths:
            problems.append(f"{key} does not round-trip through io")
    if "sparsify" in out:
        back = io.parse_edge_list(out["sparsify"])
        if back.edges() != out["obj"]["sparsify"].edges():
            problems.append("sparsify does not round-trip through io")
    if "antichain" in out and ck.parse_ids(out["antichain"]) != sorted(out["obj"]["antichain"]):
        problems.append("antichain text differs from the returned set")
    return problems


class Narrow(Workload):
    name = "narrow"
    why = ("small width (k 2/4/8, extra 0.5/2/8, n=10k): the full pipeline, "
           "where per-call overhead and edge-proportional stages dominate")

    def inputs(self, seed):
        rng = random.Random(f"narrow/{seed}")
        grid = [(k, e) for k in NARROW_K for e in NARROW_EXTRA]
        rng.shuffle(grid)
        return [Input(("narrow", i), NARROW_N,
                      edge_list_text(random_dag(NARROW_N, k, e, rng.getrandbits(32))))
                for i, (k, e) in enumerate(grid)]

    def warmup(self, seed):
        n = NARROW_N // 20
        return Input(("narrow", "warmup"), n, edge_list_text(random_dag(n, 4, 2.0, seed)))

    def op(self, lib, calls, inp):
        calls.count("io.bytes_in", len(inp.graph))
        dag = calls.call("io.parse", lib.io.parse_edge_list, inp.graph)
        cover = calls.call("incremental.solve", lib.solve, dag, inp.variant, False, False).cover
        anti = calls.call("antichain.max_antichain", lib.max_antichain, dag, cover)
        chains = calls.call("antichain.mcc", lib.chain_cover_from_mpc, dag, cover)
        sparse = calls.call("sparsify.sparsify_all", lib.sparsify_all, dag, cover)
        thinned = calls.call("thinning.thin", lib.thin, dag, cover)
        support = calls.call("thinning.cover_support", lib.cover_support, thinned)
        out = calls.call("io.format", self.format, lib.io, dag.n, cover, anti, chains,
                         sparse, thinned, support)
        out["obj"] = {"mpc": cover, "antichain": anti, "mcc": chains,
                      "sparsify": sparse, "thin_cover": thinned}
        return out

    @staticmethod
    def format(io, n, cover, anti, chains, sparse, thinned, support):
        return {"mpc": io.format_path_cover(cover),
                "antichain": io.format_antichain(anti),
                "mcc": io.format_path_cover(chains),
                "sparsify": io.format_edge_list(sparse),
                "thin_support": _support_text(n, support),
                "thin_cover": io.format_path_cover(thinned)}

    def check(self, lib, inp, out, done):
        g = ck.parse_graph(inp.graph)
        paths = ck.parse_paths(out["mpc"])
        k = len(paths)
        problems = ck.cover_problems(g, paths)
        if problems:
            return problems
        problems += ck.antichain_problems(g, ck.parse_ids(out["antichain"]), k)
        problems += ck.chain_problems(g, ck.parse_paths(out["mcc"]), paths, k)
        problems += ck.sparsified_problems(g, ck.parse_graph(out["sparsify"]), paths, k)
        problems += ck.thinned_problems(g, ck.parse_paths(out["thin_cover"]), k,
                                        ck.parse_graph(out["thin_support"]))
        return problems + _roundtrip(lib, out)


class Wide(Workload):
    name = "wide"
    why = ("width ~100-115 (n=3k, k_target=128, extra 0.5), each graph solved by "
           "k2 and k3 in turn: work proportional to k dominates; only K3 repair runs here")

    def inputs(self, seed):
        rng = random.Random(f"wide/{seed}")
        out = []
        for i in range(WIDE_GRAPHS):
            text = edge_list_text(random_dag(WIDE_N, WIDE_K, WIDE_EXTRA, rng.getrandbits(32)))
            order = ("k2", "k3") if i % 2 == 0 else ("k3", "k2")
            out.extend(Input(("wide", i, v), WIDE_N, text, v) for v in order)
        return out

    def warmup(self, seed):
        n = WIDE_N // 10
        return Input(("wide", "warmup", "k2"), n,
                     edge_list_text(random_dag(n, WIDE_K // 10, WIDE_EXTRA, seed)))

    def op(self, lib, calls, inp):
        calls.count("io.bytes_in", len(inp.graph))
        dag = calls.call("io.parse", lib.io.parse_edge_list, inp.graph)
        cover = calls.call("incremental.solve", lib.solve, dag, inp.variant, False, False).cover
        anti = calls.call("antichain.max_antichain", lib.max_antichain, dag, cover)
        out = calls.call("io.format", self.format, lib.io, cover, anti)
        out["obj"] = {"mpc": cover, "antichain": anti}
        return out

    @staticmethod
    def format(io, cover, anti):
        return {"mpc": io.format_path_cover(cover), "antichain": io.format_antichain(anti)}

    def check(self, lib, inp, out, done):
        g = ck.parse_graph(inp.graph)
        paths = ck.parse_paths(out["mpc"])
        problems = ck.cover_problems(g, paths)
        problems += ck.antichain_problems(g, ck.parse_ids(out["antichain"]), len(paths))
        other = done.get(inp.key[:2] + ({"k2": "k3", "k3": "k2"}[inp.variant],))
        if other is not None and len(ck.parse_paths(other["mpc"])) != len(paths):
            problems.append("k2 and k3 covers differ in size")
        return problems + _roundtrip(lib, out)


class ThinDense(Workload):
    name = "thin-dense"
    why = ("support thinning of redundant covers (~0.65n paths, n=2k, width ~n/10, "
           "extra 2): the only workload where red-cycle elimination does real work")

    def inputs(self, seed):
        rng = random.Random(f"thin-dense/{seed}")
        out = []
        for i in range(THIN_GRAPHS):
            adj = random_dag(THIN_N, THIN_N // 10, THIN_EXTRA, rng.getrandbits(32))
            out.append(Input(("thin-dense", i), THIN_N, edge_list_text(adj),
                             cover=paths_text(dense_cover(adj, rng.getrandbits(32)))))
        return out

    def warmup(self, seed):
        n = THIN_N // 10
        adj = random_dag(n, n // 10, THIN_EXTRA, seed)
        return Input(("thin-dense", "warmup"), n, edge_list_text(adj),
                     cover=paths_text(dense_cover(adj, seed)))

    def op(self, lib, calls, inp):
        calls.count("io.bytes_in", len(inp.graph) + len(inp.cover))
        dag = calls.call("io.parse", lib.io.parse_edge_list, inp.graph)
        given = calls.call("io.parse", lib.io.parse_path_cover, inp.cover)
        thinned = calls.call("thinning.thin", lib.thin, dag, given)
        support = calls.call("thinning.cover_support", lib.cover_support, thinned)
        out = calls.call("io.format", self.format, lib.io, dag.n, thinned, support)
        out["obj"] = {"thin_cover": thinned}
        return out

    @staticmethod
    def format(io, n, thinned, support):
        return {"thin_support": _support_text(n, support),
                "thin_cover": io.format_path_cover(thinned)}

    def check(self, lib, inp, out, done):
        g = ck.parse_graph(inp.graph)
        size = len(ck.parse_paths(inp.cover))
        problems = ck.thinned_problems(g, ck.parse_paths(out["thin_cover"]), size,
                                       ck.parse_graph(out["thin_support"]))
        return problems + _roundtrip(lib, out)


WORKLOADS = {w.name: w for w in (Narrow(), Wide(), ThinDense())}
