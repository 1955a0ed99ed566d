"""Reference complexes with hand-checkable invariants.

These are the small instances the tests pin their expected values to: a
single triangle, the boundary of the tetrahedron (a 2-sphere, so H^1
vanishes for every coefficient group), the 7-vertex triangulation of the
torus (whose 1-skeleton is K_7 and whose Z/2 cohomology has exactly four
classes), the octahedron (the smallest 3-partite 2-sphere), a 3-partite
strip whose same-colored vertices have unlike links, and assorted
1-dimensional complexes for Cheeger-constant cross-checks.
"""

from __future__ import annotations

import numpy as np

from .complexes import SimplicialComplex
from .errors import ParameterError


def single_triangle() -> SimplicialComplex:
    return SimplicialComplex(2, 3, [[0, 1, 2]], colors=[0, 1, 2])


def triangle_strip() -> SimplicialComplex:
    """Three triangles in a row, 3-partite but with unlike links.

    Faces [0,1,2], [1,2,3], [2,3,4] with colors 0,1,2,0,1.  The color-0
    vertices 0 and 3 have links with 2 and 3 vertices (an edge and a
    path), so no color type is a single link isomorphism class.
    """
    return SimplicialComplex(2, 5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
                             colors=[0, 1, 2, 0, 1])


def tetrahedron_sphere() -> SimplicialComplex:
    """All four triangles on four vertices; chi = 2.  Not 3-partite."""
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    return SimplicialComplex(2, 4, faces)


def octahedron() -> SimplicialComplex:
    """K_{2,2,2}: antipodal pairs (0,1), (2,3), (4,5); chi = 2."""
    faces = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex(2, 6, faces, colors=[0, 0, 1, 1, 2, 2])


def torus_7() -> SimplicialComplex:
    """Minimal 7-vertex torus: faces {i, i+1, i+3} and {i, i+2, i+3} mod 7.

    14 triangles, 21 edges (the skeleton is K_7), Euler characteristic 0,
    every edge in exactly two triangles.
    """
    faces = []
    for i in range(7):
        faces.append([i, (i + 1) % 7, (i + 3) % 7])
        faces.append([i, (i + 2) % 7, (i + 3) % 7])
    return SimplicialComplex(2, 7, faces)


def cycle_complex(k: int) -> SimplicialComplex:
    """The k-cycle as a pure 1-dimensional complex."""
    if k < 3:
        raise ParameterError(f"cycle needs k >= 3, got {k}")
    return SimplicialComplex(1, k, [[i, (i + 1) % k] for i in range(k)])


def path_complex(k: int) -> SimplicialComplex:
    if k < 2:
        raise ParameterError(f"path needs k >= 2 vertices, got {k}")
    return SimplicialComplex(1, k, [[i, i + 1] for i in range(k - 1)])


def complete_graph(k: int) -> SimplicialComplex:
    if k < 2:
        raise ParameterError(f"complete graph needs k >= 2, got {k}")
    faces = [[i, j] for i in range(k) for j in range(i + 1, k)]
    return SimplicialComplex(1, k, faces)


def complete_bipartite(a: int, b: int) -> SimplicialComplex:
    if a < 1 or b < 1:
        raise ParameterError("both sides need at least one vertex")
    faces = [[i, a + j] for i in range(a) for j in range(b)]
    return SimplicialComplex(1, a + b, faces,
                             colors=[0] * a + [1] * b)


def petersen_graph() -> SimplicialComplex:
    """Outer 5-cycle, inner pentagram, five spokes; 3-regular."""
    faces = []
    for i in range(5):
        faces.append(sorted((i, (i + 1) % 5)))
        faces.append(sorted((5 + i, 5 + (i + 2) % 5)))
        faces.append([i, 5 + i])
    return SimplicialComplex(1, 10, faces)


def two_triangles_disjoint() -> SimplicialComplex:
    """Disconnected fixture: two triangles sharing nothing."""
    return SimplicialComplex(2, 6, [[0, 1, 2], [3, 4, 5]])


def bowtie() -> SimplicialComplex:
    """Two triangles sharing vertex 0, whose link is disconnected."""
    return SimplicialComplex(2, 5, [[0, 1, 2], [0, 3, 4]])
