from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagwidth import PathCover, build_dag, gen_random_dag
from dagwidth.errors import CycleDetected, DagWidthError, ParseError, SelfLoop
from dagwidth.io import (format_antichain, format_edge_list, format_path_cover,
                         parse_edge_list, parse_path_cover)


def test_edge_list_round_trip(d4):
    text = format_edge_list(d4)
    assert text.splitlines()[0] == "4 4"
    again = parse_edge_list(text)
    assert again.edges() == d4.edges()


def test_edge_list_comments_and_blanks():
    dag = parse_edge_list("# a comment\n\n3 2\n0 1\n# interlude\n1 2\n")
    assert dag.n == 3 and dag.m == 2


def test_edge_list_remaps_sparse_ids():
    dag, mapping = parse_edge_list("3 1\n10 40\n", want_mapping=True)
    assert dag.n == 3
    assert dag.edges() == [(0, 1)]
    assert mapping[:2] == [10, 40]


def test_edge_list_identity_when_dense():
    dag, mapping = parse_edge_list("3 2\n0 1\n1 2\n", want_mapping=True)
    assert mapping == [0, 1, 2]


def test_edge_list_fresh_labels_avoid_collisions():
    # ids 1 and 3 are remapped; the unmentioned third vertex must not reuse
    # an original label
    dag, mapping = parse_edge_list("3 1\n1 3\n", want_mapping=True)
    assert dag.n == 3 and dag.edges() == [(0, 1)]
    assert mapping[:2] == [1, 3]
    assert len(set(mapping)) == 3


def test_edge_list_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("1 1\n0 1 2\n")


# (case, text, exception type, exact message), recorded before the parse
# became one pass. The first failing check wins: header, then the edge-line
# count, then each line in order, then the id count, then self-loops in input
# order, then cycles.
MALFORMED_EDGE_LISTS = [
    ("empty", "", ParseError, "empty input"),
    ("only_comments", "# c\n\n", ParseError, "empty input"),
    ("header_one_token", "2\n0 1\n", ParseError, "expected 'n m' header, got '2'"),
    ("header_three_tokens", "2 1 0\n0 1\n", ParseError,
     "expected 'n m' header, got '2 1 0'"),
    ("header_not_int", "a 1\n0 1\n", ParseError, "bad header 'a 1'"),
    ("negative_n", "-1 0\n", ParseError, "negative counts in header"),
    ("negative_m", "2 -1\n", ParseError, "negative counts in header"),
    ("too_few_lines", "2 2\n0 1\n", ParseError, "expected 2 edge lines, found 1"),
    ("too_many_lines", "2 0\n0 1\n", ParseError, "expected 0 edge lines, found 1"),
    ("one_token", "2 1\n0\n", ParseError, "bad edge line '0'"),
    ("three_tokens", "1 1\n0 1 2\n", ParseError, "bad edge line '0 1 2'"),
    ("non_int", "2 1\n0 x\n", ParseError, "bad edge line '0 x'"),
    ("float", "2 1\n0 1.0\n", ParseError, "bad edge line '0 1.0'"),
    ("negative_tail", "3 1\n-1 2\n", ParseError, "negative vertex id in '-1 2'"),
    ("negative_head", "3 1\n0 -2\n", ParseError, "negative vertex id in '0 -2'"),
    ("negative_after_large", "3 2\n0 9\n-1 1\n", ParseError,
     "negative vertex id in '-1 1'"),
    ("too_many_ids", "2 2\n0 5\n6 7\n", ParseError, "4 distinct ids but n=2"),
    ("self_loop_and_too_many_ids", "2 2\n5 5\n6 7\n", ParseError,
     "3 distinct ids but n=2"),
    ("self_loop", "3 2\n0 1\n2 2\n", SelfLoop, "self-loop at vertex 2"),
    ("self_loop_sparse", "3 2\n10 20\n30 30\n", SelfLoop, "self-loop at vertex 2"),
    ("two_self_loops", "3 2\n2 2\n1 1\n", SelfLoop, "self-loop at vertex 2"),
    ("cycle", "3 3\n0 1\n1 2\n2 0\n", CycleDetected,
     "cycle detected: no topological order exists"),
    ("cycle_and_self_loop", "3 4\n0 1\n1 0\n2 2\n0 2\n", SelfLoop,
     "self-loop at vertex 2"),
    ("self_loop_then_malformed", "3 2\n1 1\n0 x\n", ParseError, "bad edge line '0 x'"),
    ("malformed_and_wrong_count", "3 3\n0 1\n0 x\n", ParseError,
     "expected 3 edge lines, found 2"),
]


@pytest.mark.parametrize("case, text, exc, message", MALFORMED_EDGE_LISTS,
                         ids=[c[0] for c in MALFORMED_EDGE_LISTS])
def test_edge_list_error_table(case, text, exc, message):
    with pytest.raises(DagWidthError) as info:
        parse_edge_list(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def _reference_parse(text: str):
    """The edge-list format read token by token, independently of dagwidth.io."""
    rows = [ln.split() for ln in text.splitlines()]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    n = int(rows[0][0])
    edges = [(int(a), int(b)) for a, b in rows[1:]]
    ids = sorted({x for e in edges for x in e})
    if ids and ids[-1] >= n:
        new = {old: i for i, old in enumerate(ids)}
        edges = [(new[u], new[v]) for u, v in edges]
        mapping = ids + list(range(ids[-1] + 1, ids[-1] + 1 + n - len(ids)))
    else:
        mapping = list(range(n))
    return build_dag(n, edges), mapping


def _outcome(parse, text):
    try:
        dag, mapping = parse(text)
    except DagWidthError as exc:
        return type(exc), str(exc)
    return (dag.n, dag.out_adj, dag.in_adj, dag.topo, dag.topo_pos, mapping)


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        labels = draw(st.permutations(range(n)))
    else:
        labels = draw(st.lists(st.integers(0, 10 * n), min_size=n, max_size=n,
                               unique=True))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = [(labels[order[min(i, j)]], labels[order[max(i, j)]])
             for i, j in pairs if i != j]
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a duplicate edge
    if n > 1 and draw(st.integers(0, 9)) == 0:
        edges.append((labels[order[-1]], labels[order[0]]))  # closes a cycle
    if draw(st.integers(0, 9)) == 0:
        edges.append((labels[-1], labels[-1]))  # a self-loop
    edges = draw(st.permutations(edges))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t"])
    lines = [f"{n}{draw(gap)}{len(edges)}"]
    lines += [f"{draw(pad)}{u}{draw(gap)}{v}{draw(pad)}" for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# comment", "  # 1 2", "\t"])))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(max_examples=200, deadline=None)
@given(edge_list_texts())
def test_edge_list_matches_reference_tokenisation(text):
    parsed = _outcome(lambda t: parse_edge_list(t, want_mapping=True), text)
    assert parsed == _outcome(_reference_parse, text)


def test_edge_list_parse_peak_is_bounded_by_the_dag():
    text = format_edge_list(gen_random_dag(20000, 4, 8.0, 1))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dag = parse_edge_list(text)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dag.n == 20000
    size = after - before
    assert peak - before <= 2.5 * size, (peak - before, size)


def test_path_cover_round_trip():
    cover = PathCover([[0, 1, 3], [2]])
    text = format_path_cover(cover)
    assert text == "2\n0 1 3\n2\n"
    assert parse_path_cover(text).paths == cover.paths


def test_antichain_line_sorted():
    assert format_antichain({2, 1}) == "1 2\n"
