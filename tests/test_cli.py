from __future__ import annotations

import pytest

from dagwidth.cli import main
from dagwidth.io import parse_edge_list, parse_path_cover

D4_TEXT = "4 4\n0 1\n0 2\n1 3\n2 3\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_mpc_d4(tmp_path, capsys):
    rc = main(["mpc", _write(tmp_path, "g.txt", D4_TEXT), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    cover = parse_path_cover(out)
    assert cover.size == 2


def _singleton_chain(tmp_path, monkeypatch) -> str:
    """A 600-vertex chain, with the solver patched to cover it by
    singletons: a valid cover that is not minimum. n > 500 is past the
    oracle's bound, so only the decrementing-path check can reject it."""
    from types import SimpleNamespace

    from dagwidth import PathCover, cli
    n = 600
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    singletons = PathCover([[v] for v in range(n)])
    monkeypatch.setattr(cli, "solve",
                        lambda dag, variant: SimpleNamespace(cover=singletons))
    return _write(tmp_path, "chain.txt", text)


def test_mpc_verify_rejects_a_non_minimum_cover_beyond_the_oracle(
        tmp_path, capsys, monkeypatch):
    rc = main(["mpc", _singleton_chain(tmp_path, monkeypatch), "--verify"])
    assert rc == 2
    assert "not minimum" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["antichain", "mcc", "thin"])
def test_verify_rejects_a_non_minimum_solver_cover(command, tmp_path, capsys, monkeypatch):
    rc = main([command, _singleton_chain(tmp_path, monkeypatch), "--verify"])
    assert rc == 2
    assert "not minimum" in capsys.readouterr().err


def test_antichain_verify_sweeps_once(tmp_path, capsys, monkeypatch):
    from dagwidth import cli
    calls = []
    sweep = cli.max_antichain
    monkeypatch.setattr(cli, "max_antichain",
                        lambda dag, cover: calls.append(1) or sweep(dag, cover))
    rc = main(["antichain", _write(tmp_path, "g.txt", D4_TEXT), "--verify"])
    assert rc == 0 and capsys.readouterr().out == "1 2\n"
    assert len(calls) == 1


def test_mcc_verify_rejects_a_chain_out_of_path_order(tmp_path, capsys, monkeypatch):
    # the chains stay disjoint and cover every vertex, but [0, 3, 1] steps
    # from 3 back to 1, which no path of the cover does
    from dagwidth import cli
    chain_cover = cli.chain_cover_from_mpc

    def swapped(dag, cover):
        chains = chain_cover(dag, cover)
        assert chains.paths[0] == [0, 1, 3]
        chains.paths[0][1:] = [3, 1]
        return chains

    monkeypatch.setattr(cli, "chain_cover_from_mpc", swapped)
    rc = main(["mcc", _write(tmp_path, "g.txt", D4_TEXT), "--verify"])
    assert rc == 2
    assert capsys.readouterr().err == "chain 0 is not a subsequence of cover path 0\n"


def test_mpc_single_vertex(tmp_path, capsys):
    rc = main(["mpc", _write(tmp_path, "g.txt", "1 0\n")])
    assert rc == 0
    assert capsys.readouterr().out == "1\n0\n"


def test_mpc_cycle_is_input_error(tmp_path, capsys):
    rc = main(["mpc", _write(tmp_path, "g.txt", "2 2\n0 1\n1 0\n")])
    assert rc == 1
    assert "cycle detected" in capsys.readouterr().err


def test_mpc_missing_file():
    assert main(["mpc", "/nonexistent/path.txt"]) == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_directory_input_is_input_error(tmp_path, capsys):
    assert main(["mpc", str(tmp_path)]) == 1
    assert "Is a directory" in _one_error_line(capsys)


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"2 1\n0 1\n\xff\n")
    assert main(["mpc", str(path)]) == 1
    assert "is not UTF-8 text" in _one_error_line(capsys)


@pytest.mark.parametrize("argv, says", [
    (["mpc"], "required: input"),
    (["mpc", "g.txt", "--bogus"], "unrecognized arguments: --bogus"),
    (["bench", "--sizes", "10,x"], "argument --sizes"),
    (["bench", "--repeats", "0"], "argument --repeats"),
])
def test_usage_error_exits_1_not_2(argv, says, capsys):
    # exit 2 is reserved for a failed verification
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert says in _one_error_line(capsys)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mpc", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dagwidth mpc")


def test_mpc_stats_line(tmp_path, capsys):
    rc = main(["mpc", _write(tmp_path, "g.txt", D4_TEXT), "--stats"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "k=2" in captured.err and "charges=" in captured.err


def test_mpc_variants_agree_on_size(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", D4_TEXT)
    sizes = []
    for variant in ("k2", "k3"):
        assert main(["mpc", path, "--variant", variant]) == 0
        sizes.append(parse_path_cover(capsys.readouterr().out).size)
    assert sizes == [2, 2]


def test_antichain_d4(tmp_path, capsys):
    rc = main(["antichain", _write(tmp_path, "g.txt", D4_TEXT), "--verify"])
    assert rc == 0
    assert capsys.readouterr().out == "1 2\n"


def test_mcc_d4(tmp_path, capsys):
    rc = main(["mcc", _write(tmp_path, "g.txt", D4_TEXT), "--verify"])
    assert rc == 0
    chains = parse_path_cover(capsys.readouterr().out)
    assert chains.size == 2
    assert sorted(v for c in chains.paths for v in c) == [0, 1, 2, 3]


def test_sparsify_t3(tmp_path, capsys):
    rc = main(["sparsify", _write(tmp_path, "g.txt", "3 3\n0 1\n1 2\n0 2\n"),
               "--verify"])
    assert rc == 0
    dag = parse_edge_list(capsys.readouterr().out)
    assert dag.edges() == [(0, 1), (1, 2)]


def test_thin_outputs_graph_and_cover(tmp_path, capsys):
    graph = _write(tmp_path, "g.txt", D4_TEXT)
    cover_out = tmp_path / "cover.txt"
    rc = main(["thin", graph, "--verify", "--cover-out", str(cover_out)])
    assert rc == 0
    thinned = parse_edge_list(capsys.readouterr().out)
    assert thinned.n == 4 and thinned.m < 8
    cover = parse_path_cover(cover_out.read_text())
    assert cover.size == 2


def test_gen_remark_counts(tmp_path, capsys):
    rc = main(["gen", "--family", "remark", "--n", "2"])
    assert rc == 0
    dag = parse_edge_list(capsys.readouterr().out)
    assert dag.n == 8 and dag.m == 8


def test_gen_random_requires_seed(capsys):
    assert main(["gen", "--n", "10", "--k", "2"]) == 1


def test_gen_random_deterministic(capsys):
    args = ["gen", "--n", "30", "--k", "3", "--extra", "1.0", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_bench_row_count(capsys):
    rc = main(["bench", "--k", "2", "--sizes", "50,100,200", "--repeats", "1",
               "--seed", "3"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    for row, n in zip(rows, (50, 100, 200)):
        fields = row.split(",")
        assert fields[0] == str(n) and fields[3] == "k2"
        assert len(fields) == 6


def test_bench_times_the_kernel(capsys, monkeypatch):
    # solve runs the kernel, never insert_vertex; bench must time that loop
    from dagwidth import gen_random_dag, solve
    from dagwidth.incremental import SolverState

    monkeypatch.setattr(SolverState, "insert_vertex", None)
    rc = main(["bench", "--k", "3", "--sizes", "60,120", "--extra", "1.5",
               "--repeats", "2", "--seed", "4"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    for i, (row, n) in enumerate(zip(rows, (60, 120))):
        expected = solve(gen_random_dag(n, 3, 1.5, 4 + i)).charges["total_units"]
        assert row.split(",")[5] == str(expected), n


def test_verify_rejects_corrupted_cover(d4):
    # the CLI --verify path rests on this check: corrupted covers never pass
    import random

    from dagwidth import PathCover, solve, validate_cover
    cover = solve(d4).cover
    rng = random.Random(0)
    for _ in range(20):
        mutated = [list(p) for p in cover.paths]
        mode = rng.randrange(3)
        if mode == 0:  # drop a vertex occurrence
            p = rng.randrange(len(mutated))
            if sum(len(x) for x in mutated) > 1 and len(mutated[p]) > 0:
                del mutated[p][rng.randrange(len(mutated[p]))]
        elif mode == 1:  # break an edge by swapping two entries
            p = rng.randrange(len(mutated))
            if len(mutated[p]) >= 2:
                i = rng.randrange(len(mutated[p]) - 1)
                mutated[p][i], mutated[p][i + 1] = mutated[p][i + 1], mutated[p][i]
        else:  # inject an unknown vertex
            p = rng.randrange(len(mutated))
            mutated[p].append(99)
        if mutated == [list(p) for p in cover.paths]:
            continue
        report = validate_cover(d4, PathCover(mutated))
        covered = {v for p in mutated for v in p if 0 <= v < 4}
        edges_ok = all(
            b in d4.out_adj[a] for p in mutated for a, b in zip(p, p[1:]))
        if covered != {0, 1, 2, 3} or not edges_ok:
            assert not report.ok


# Sparse labels 5 < 17 < 30 < 99 stand for the dense ids 0 < 1 < 2 < 3.
SPARSE_LABELS = [5, 17, 30, 99]
SPARSE_TEXT = "4 5\n5 17\n5 30\n17 99\n30 99\n5 99\n"
DENSE_TEXT = "4 5\n0 1\n0 2\n1 3\n2 3\n0 3\n"


def _relabel(text: str, header: bool) -> str:
    """Map every vertex id of a CLI output onto its sparse label; header
    says the first line holds counts, not ids."""
    lines = text.splitlines()
    out = lines[:1] if header else []
    for ln in lines[1:] if header else lines:
        out.append(" ".join(str(SPARSE_LABELS[int(x)]) for x in ln.split()))
    return "\n".join(out) + "\n"


def test_mpc_answers_in_input_labels(tmp_path, capsys):
    rc = main(["mpc", _write(tmp_path, "g.txt", "3 2\n10 50\n50 90\n")])
    assert rc == 0
    assert capsys.readouterr().out == "1\n10 50 90\n"


@pytest.mark.parametrize("command,header", [
    ("mpc", True), ("antichain", False), ("mcc", True), ("sparsify", True),
    ("thin", True)])
def test_sparse_ids_round_trip(tmp_path, capsys, command, header):
    def run(text, name):
        argv = [command, _write(tmp_path, name + ".txt", text), "--verify"]
        if command == "thin":
            argv += ["--cover-out", str(tmp_path / (name + "_cover.txt"))]
        assert main(argv) == 0
        return capsys.readouterr().out

    dense = run(DENSE_TEXT, "dense")
    sparse = run(SPARSE_TEXT, "sparse")
    assert sparse == _relabel(dense, header)
    body = sparse.splitlines()[1:] if header else sparse.splitlines()
    assert {int(x) for ln in body for x in ln.split()} <= set(SPARSE_LABELS)
    if command == "thin":
        assert (tmp_path / "sparse_cover.txt").read_text() == _relabel(
            (tmp_path / "dense_cover.txt").read_text(), header=True)
