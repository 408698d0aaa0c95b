"""Independent rank-1 oracle: directed-edge non-backtracking spectra.

Built straight from the graph, with no shared code paths with the germ or
transfer machinery, so it can certify the rank-1 transfer matrices.  For a
(q+1)-regular graph the determinant identity

    det(I - u B) = (1 - u^2)^(m - n) * det(I - u A + q u^2 I)

ties the non-backtracking matrix B to the vertex adjacency matrix A; the
oracle evaluates both sides at sample points and reports the residual.
`germ_edge_positions` is the only bridge to the germ side: it names the
directed edge under each radius-1 germ, so that the two matrices can be
compared entry by entry.  `verify` feeds the oracle the edge list of each
graph/v1 input document, bundled or not.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .pcg64 import PCG64


def directed_edges(edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    out = []
    for u, v in es:
        out.append((u, v))
        out.append((v, u))
    return out


def non_backtracking_matrix(edges: Sequence[Tuple[int, int]]):
    """B[e][f] = 1 when f follows e without backtracking; plus the edge list."""
    des = directed_edges(edges)
    pos = {e: k for k, e in enumerate(des)}
    n = len(des)
    b = np.zeros((n, n), dtype=np.int64)
    by_tail = {}
    for (u, v) in des:
        by_tail.setdefault(u, []).append((u, v))
    for k, (u, v) in enumerate(des):
        for f in by_tail.get(v, ()):
            if f[1] != u:
                b[k, pos[f]] = 1
    return b, des


def germ_edge_positions(system, table, des) -> np.ndarray:
    """Position in `des` of the directed edge under each radius-1 germ.

    A rank-1 germ with rotation sigma on the edge (chamber) e runs from the
    endpoint of type sigma(0) to the endpoint of type sigma(1); the system's
    vertex ids name both ends.
    """
    pos = {e: k for k, e in enumerate(des)}
    vid = system.vertex_ids
    perm = np.empty(len(table), dtype=np.int64)
    for gpos, g in enumerate(table.germs):
        rot = system.root_system.rotations[g.sigma_index].perm
        e = g.chambers[0]
        perm[gpos] = pos[(vid[rot[0]][e], vid[rot[1]][e])]
    return perm


def _check_bipartite_regular(edges):
    if not edges:
        raise ValueError("empty edge list")
    verts = sorted({x for e in edges for x in e})
    nbrs = {v: set() for v in verts}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    color = {verts[0]: 0}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                raise ValueError("graph is not bipartite")
    if len(color) != len(verts):
        raise ValueError("graph is not connected")
    degs = {len(nbrs[v]) for v in verts}
    if len(degs) != 1:
        raise ValueError("oracle identity needs a regular graph")
    return degs.pop()


def ihara_spectrum(edges: Sequence[Tuple[int, int]]):
    """Non-backtracking eigenvalues of a bipartite regular graph, plus the
    worst determinant-identity residual over sample points."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    deg = _check_bipartite_regular(edges)
    q = deg - 1
    verts = sorted({x for e in edges for x in e})
    vid = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    m = len(edges)
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in edges:
        a[vid[u], vid[v]] = 1.0
        a[vid[v], vid[u]] = 1.0
    b, des = non_backtracking_matrix(edges)
    vals = np.linalg.eigvals(b.astype(np.float64))
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]

    rng = PCG64(12345)
    worst = 0.0
    eye_e = np.eye(2 * m)
    eye_v = np.eye(n)
    for _ in range(6):
        u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        lhs = np.linalg.det(eye_e - u * b)
        rhs = (1 - u * u) ** (m - n) * np.linalg.det(eye_v - u * a + q * u * u * eye_v)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return vals, worst, des, q


def multiset_close(a, b, tol: float) -> bool:
    """Greedy matching of two complex multisets within `tol`."""
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for x in a:
        best, best_d = -1, tol
        for k, y in enumerate(b):
            if used[k]:
                continue
            d = abs(x - y)
            if d <= best_d:
                best, best_d = k, d
        if best < 0:
            return False
        used[best] = True
    return True
