"""Reference complexes with hand-checkable invariants.

These are the small instances the suite's checks pin their expected
values to: a single triangle, the boundary of the tetrahedron (a
2-sphere, so H^1 vanishes for every coefficient group), the 7-vertex
triangulation of the torus (whose 1-skeleton is K_7 and whose Z/2
cohomology has exactly four classes), the octahedron (the smallest
3-partite 2-sphere), and the cycles, complete graphs and Petersen graph
of the Cheeger-constant and spectral checks.
"""

from __future__ import annotations

from .complexes import SimplicialComplex
from .errors import ParameterError


def single_triangle() -> SimplicialComplex:
    return SimplicialComplex(2, 3, [[0, 1, 2]], colors=[0, 1, 2])


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


def complete_graph(k: int) -> SimplicialComplex:
    if k < 2:
        raise ParameterError(f"complete graph needs k >= 2, got {k}")
    faces = [[i, j] for i in range(k) for j in range(i + 1, k)]
    return SimplicialComplex(1, k, faces)


def petersen_graph() -> SimplicialComplex:
    """Outer 5-cycle, inner pentagram, five spokes; 3-regular."""
    faces = []
    for i in range(5):
        faces.append(sorted((i, (i + 1) % 5)))
        faces.append(sorted((5 + i, 5 + (i + 2) % 5)))
        faces.append([i, 5 + i])
    return SimplicialComplex(1, 10, faces)
