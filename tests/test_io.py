from __future__ import annotations

import pytest

from dagwidth import PathCover
from dagwidth.errors import ParseError
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


def test_path_cover_round_trip():
    cover = PathCover([[0, 1, 3], [2]])
    text = format_path_cover(cover)
    assert text == "2\n0 1 3\n2\n"
    assert parse_path_cover(text).paths == cover.paths


def test_antichain_line_sorted():
    assert format_antichain({2, 1}) == "1 2\n"
