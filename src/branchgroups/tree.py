"""Vertices of the d-regular rooted tree and the descendance order.

A vertex is a tuple of letters in {0, ..., d-1}; the empty tuple is the
root.  Vertices serialize as digit strings ("" for the root, "010", ...),
which is the form used in files, CLI arguments and JSON reports, so a
degree above MAX_DEGREE is refused.  Every tree walk, quotient level and
portrait depth is checked against the one LEVEL_CAP before any work.
"""

from __future__ import annotations

from itertools import product

Vertex = tuple[int, ...]

ROOT: Vertex = ()
MAX_DEGREE = 10  # one digit per letter
LEVEL_CAP = 10


class InvalidDegreeError(ValueError):
    """Raised for tree degrees < 2."""


def check_degree(d: int) -> None:
    if d < 2:
        raise InvalidDegreeError(f"tree degree must be >= 2, got {d}")


class LevelCapExceeded(ValueError):
    """A level past LEVEL_CAP, or a whole level image past quotients.POINT_CAP vertices."""


def _check_level(preset, n: int):
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > LEVEL_CAP and preset.degree > 1:
        raise LevelCapExceeded(f"level {n} exceeds cap {LEVEL_CAP} for degree {preset.degree}")


def parse_vertex(s: str, d: int) -> Vertex:
    """Parse a digit string into a vertex of the degree-d tree.  "" denotes the root."""
    if not all(c.isdigit() for c in s):
        raise ValueError(f"invalid vertex string {s!r}")
    v = tuple(int(c) for c in s)
    for x in v:
        if x >= d:
            raise ValueError(f"letter {x} out of range for degree {d}")
    return v


def format_vertex(v: Vertex) -> str:
    if any(x >= MAX_DEGREE for x in v):
        raise ValueError(f"vertex serialization requires degree <= {MAX_DEGREE}")
    return "".join(str(x) for x in v)


def level_vertices(d: int, n: int) -> list[Vertex]:
    """All d^n vertices of level n, in lexicographic order."""
    check_degree(d)
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return [tuple(w) for w in product(range(d), repeat=n)]


def vertex_leq(w: Vertex, v: Vertex) -> bool:
    """True iff w lies in the subtree rooted at v (v is a prefix of w)."""
    return len(w) >= len(v) and w[: len(v)] == v
