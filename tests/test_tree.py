import itertools

import pytest

from branchgroups.tree import (
    ROOT,
    InvalidDegreeError,
    format_vertex,
    level_vertices,
    parse_vertex,
    vertex_leq,
)


def test_root_is_empty():
    assert ROOT == ()
    assert format_vertex(ROOT) == ""


def test_parse_format_round_trip():
    for d in (2, 3, 5):
        for n in range(4):
            for v in level_vertices(d, n):
                assert parse_vertex(format_vertex(v), d) == v


def test_parse_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        parse_vertex("02", 2)


def test_invalid_degree():
    with pytest.raises(InvalidDegreeError):
        level_vertices(1, 2)
    with pytest.raises(ValueError):
        level_vertices(2, -1)


def test_level_vertices_lexicographic():
    got = level_vertices(2, 3)
    assert got == list(itertools.product(range(2), repeat=3))
    assert got == sorted(got)
    assert len(level_vertices(3, 4)) == 81


def test_vertex_leq_is_prefix_order():
    # w <= v means v is an ancestor (prefix) of w
    assert vertex_leq((0, 1, 1), (0, 1))
    assert vertex_leq((0, 1), (0, 1))
    assert not vertex_leq((0, 1), (0, 1, 1))
    assert not vertex_leq((1, 0), (0,))
    assert vertex_leq((1, 0), ROOT)
