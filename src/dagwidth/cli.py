"""Command line front end.

Subcommands: mpc, antichain, mcc, sparsify, thin, gen, bench. Graphs are
read and written in the shared edge-list format; covers in the path-cover
format. Every output names vertices by the labels of the input, even when
those are sparse. Exit codes: 0 ok, 1 input or usage error, 2 verification
failure, 3 internal invariant violation; errors print one line to stderr.
DAGWIDTH_DEBUG=1 turns on per-insertion auditing and trace lines. `bench`
times `solve`'s insertion loop, the kernel `SolverState._insert_all`.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

from . import io
from .antichain import chain_cover_from_mpc, max_antichain, residual_antichain
from .dag import Dag, PathCover, gen_random_dag, remark_family
from .errors import DagWidthError, InvariantViolation, NotMinimum, ParseError
from .incremental import SolverState, solve
from .oracle import WIDTH_BOUND, oracle_width, validate_cover
from .sparsify import sparsify_all
from .thinning import cover_support, thin

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3
VARIANT_HELP = ("solver bookkeeping; k2 and k3 run the same code, "
                "k2 is kept as a name for compatibility")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits 1, as for any bad input,
    so that exit 2 means only a failed verification."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}; see {self.prog} --help\n")


def _size_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _read_graph(path: str) -> tuple[Dag, list[int]]:
    """The graph on dense ids, and mapping[id] = the input's label for id."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return io.parse_edge_list(text, want_mapping=True)


def _labelled(cover: PathCover, mapping: list[int]) -> PathCover:
    return PathCover([[mapping[v] for v in path] for path in cover.paths])


def _edge_list_text(n: int, edges, mapping: list[int]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{mapping[u]} {mapping[v]}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_cover(dag: Dag, cover: PathCover) -> tuple[list[str], set[int] | None]:
    """Problems with a cover that should be minimum, and the maximum
    antichain read off it (None unless the cover is valid and minimum). A
    valid cover must admit no decrementing path at any n, which the
    residual sweep decides without the solver's certificate; within the
    oracle's bound its size is also checked against the width."""
    problems = list(validate_cover(dag, cover).violations)
    members = None
    if not problems:
        try:
            members = residual_antichain(dag, cover)
        except NotMinimum as exc:
            problems.append(f"cover is not minimum: {exc}")
    if dag.n <= WIDTH_BOUND:
        want = oracle_width(dag)
        if cover.size != want:
            problems.append(f"cover size {cover.size} != width {want}")
    return problems, members


def _is_subsequence(chain: list[int], path: list[int]) -> bool:
    rest = iter(path)
    return all(v in rest for v in chain)


def cmd_mpc(args) -> int:
    dag, mapping = _read_graph(args.input)
    t0 = time.perf_counter()
    result = solve(dag, variant=args.variant)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.verify:
        problems, _ = _verify_cover(dag, result.cover)
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    _emit(io.format_path_cover(_labelled(result.cover, mapping)), args.out)
    if args.stats:
        print(f"k={result.cover.size} length={result.cover.length} "
              f"ms={elapsed:.2f} charges={result.charges['total_units']} "
              f"merges={result.charges['merges']}", file=sys.stderr)
    return EXIT_OK


def cmd_antichain(args) -> int:
    dag, mapping = _read_graph(args.input)
    result = solve(dag, variant=args.variant)
    if args.verify:
        problems, members = _verify_cover(dag, result.cover)
        if members is not None and len(members) != result.cover.size:
            problems.append("antichain size differs from cover size")
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    else:
        members = max_antichain(dag, result.cover)
    _emit(io.format_antichain(mapping[v] for v in members), args.out)
    return EXIT_OK


def cmd_mcc(args) -> int:
    dag, mapping = _read_graph(args.input)
    result = solve(dag, variant=args.variant)
    chains = chain_cover_from_mpc(dag, result.cover)
    if args.verify:
        # a chain that is a subsequence of its cover path steps only
        # between vertices that path connects
        problems, _ = _verify_cover(dag, result.cover)
        seen: set[int] = set()
        for chain in chains.paths:
            for v in chain:
                if v in seen:
                    problems.append(f"vertex {v} on two chains")
                seen.add(v)
        if len(seen) != dag.n:
            problems.append("chains do not cover every vertex")
        if chains.size != result.cover.size:
            problems.append(f"{chains.size} chains for a cover of {result.cover.size} paths")
        for i, (chain, path) in enumerate(zip(chains.paths, result.cover.paths)):
            if not _is_subsequence(chain, path):
                problems.append(f"chain {i} is not a subsequence of cover path {i}")
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    _emit(io.format_path_cover(_labelled(chains, mapping)), args.out)
    return EXIT_OK


def cmd_sparsify(args) -> int:
    dag, mapping = _read_graph(args.input)
    result = solve(dag, variant=args.variant)
    sparse = sparsify_all(dag, result.cover)
    if args.verify:
        problems = list(validate_cover(sparse, result.cover).violations)
        if max((len(a) for a in sparse.in_adj), default=0) > result.cover.size:
            problems.append("in-degree bound violated")
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    _emit(_edge_list_text(sparse.n, sparse.edges(), mapping), args.out)
    return EXIT_OK


def cmd_thin(args) -> int:
    dag, mapping = _read_graph(args.input)
    result = solve(dag, variant=args.variant)
    if args.verify:
        problems, _ = _verify_cover(dag, result.cover)
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    thinned = thin(dag, result.cover)
    support = sorted(cover_support(thinned))
    if args.verify:
        problems = list(validate_cover(dag, thinned).violations)
        if thinned.size != result.cover.size:
            problems.append("thinning changed the cover size")
        if dag.n and len(support) >= 2 * dag.n:
            problems.append(f"{len(support)} distinct edges >= 2n")
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return EXIT_VERIFY
    _emit(_edge_list_text(dag.n, support, mapping), args.out)
    if args.cover_out:
        with open(args.cover_out, "w", encoding="utf-8") as fh:
            fh.write(io.format_path_cover(_labelled(thinned, mapping)))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family == "remark":
        dag = remark_family(args.n)
    else:
        if args.seed is None:
            raise ParseError("--seed is required for the random family")
        k = args.k if args.k is not None else max(1, args.n // 10)
        dag = gen_random_dag(args.n, k, args.extra, args.seed)
    _emit(io.format_edge_list(dag), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = []
    for idx, n in enumerate(args.sizes):
        dag = gen_random_dag(n, args.k, args.extra, args.seed + idx)
        times = []
        charges = 0
        for _ in range(args.repeats):
            state = SolverState(dag, args.variant)
            t0 = time.perf_counter()
            state._insert_all(dag.topo, dag.in_adj)
            times.append((time.perf_counter() - t0) * 1000.0)
            charges = state.charge_counters()["total_units"]
        rows.append(f"{n},{dag.m},{args.k},{args.variant},"
                    f"{statistics.median(times):.3f},{charges}")
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dagwidth",
        description="Minimum path covers, antichains and sparsification of DAGs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="edge-list file")
        p.add_argument("--variant", choices=["k2", "k3"], default="k2",
                       help=VARIANT_HELP)
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--verify", action="store_true",
                       help="check the result before printing")

    p = sub.add_parser("mpc", help="minimum path cover")
    common(p)
    p.add_argument("--stats", action="store_true",
                   help="print size, length, timing and charge counters")
    p.set_defaults(func=cmd_mpc)

    p = sub.add_parser("antichain", help="maximum antichain")
    common(p)
    p.set_defaults(func=cmd_antichain)

    p = sub.add_parser("mcc", help="minimum chain cover")
    common(p)
    p.set_defaults(func=cmd_mcc)

    p = sub.add_parser("sparsify", help="transitive sparsification")
    common(p)
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("thin", help="support sparsification of an MPC")
    common(p)
    p.add_argument("--cover-out", help="also write the rewired cover here")
    p.set_defaults(func=cmd_thin)

    p = sub.add_parser("gen", help="generate benchmark instances")
    p.add_argument("--family", choices=["random", "remark"], default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--extra", type=float, default=0.0,
                   help="extra forward edges per vertex")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time solve's insertion loop, CSV n,m,k,variant,ms,charges")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--sizes", type=_size_list, default="10000,20000,40000")
    p.add_argument("--extra", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--variant", choices=["k2", "k3"], default="k2",
                   help=VARIANT_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DagWidthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
