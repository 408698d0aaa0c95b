"""Finite labeled chamber systems and their local-building validation.

A chamber system is stored as a set of chambers {0..N-1} together with one
partition per type i: the blocks are the i-equivalence classes.  For rank-1
systems built from bipartite graphs the i-blocks are the edge stars of the
color-i vertices, so q_i + 1 is the color-i degree.  For rank-2 systems the
i-blocks are the sets of chambers sharing their cotype-i panel.

Validation checks the finitely checkable necessary conditions for being a
quotient of a thick regular affine building: constant block sizes, gallery
connectivity, and generalized-polygon rank-2 residues (bipartite incidence
graphs of girth exactly 2*m_ij and diameter exactly m_ij).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .rootdata import INFINITE, ParameterSystem, build_root_system

CHAMBER_FORMAT = "chamber-system/v1"
GRAPH_FORMAT = "graph/v1"
TRIANGLE_FORMAT = "triangle-presentation/v1"


class _DSU:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[rb] = ra


def _canonical_partition(blocks: Sequence[Sequence[int]]) -> List[List[int]]:
    return sorted([sorted(int(c) for c in b) for b in blocks])


@dataclass
class ValidationReport:
    regular: bool
    connected: bool
    rank2_ok: Dict[Tuple[int, int], bool]
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.regular and self.connected and all(self.rank2_ok.values())

    def summary(self) -> str:
        lines = [
            f"regular:   {'ok' if self.regular else 'FAIL'}",
            f"connected: {'ok' if self.connected else 'FAIL'}",
        ]
        for pair in sorted(self.rank2_ok):
            ok = self.rank2_ok[pair]
            lines.append(f"residues {pair}: {'ok' if ok else 'FAIL'}")
        for check, witness in self.failures:
            lines.append(f"  failure [{check}]: {witness}")
        return "\n".join(lines)


class ChamberSystem:
    """A finite labeled chamber system over the index set of `kind`."""

    def __init__(self, kind: str, q, num_chambers: int, residues, vertex_ids=None):
        self.root_system = build_root_system(kind)
        self.kind = kind
        self.params = q if isinstance(q, ParameterSystem) else ParameterSystem(self.root_system, q)
        self.num_chambers = int(num_chambers)
        self.index_set = self.root_system.index_set
        self.residues: Dict[int, List[List[int]]] = {}
        self.block_of: Dict[int, List[int]] = {}
        self.size_flags: List[str] = []
        if set(residues) != set(self.index_set):
            raise ValueError(f"{kind} needs one partition for each type {list(self.index_set)}")
        for i in self.index_set:
            blocks = _canonical_partition(residues[i])
            self._check_partition(i, blocks)
            self.residues[i] = blocks
            lookup = [-1] * self.num_chambers
            for bi, b in enumerate(blocks):
                for c in b:
                    lookup[c] = bi
            self.block_of[i] = lookup
            want = self.params[i] + 1
            for b in blocks:
                if len(b) != want:
                    self.size_flags.append(
                        f"type {i}: block of size {len(b)}, expected {want}"
                    )
        self.vertex_ids = vertex_ids
        self._partitions: Dict[frozenset, Tuple[List[int], int]] = {}

    def _check_partition(self, i, blocks):
        listed = sum(map(len, blocks))
        if listed != self.num_chambers:
            raise ValueError(f"type {i}: the blocks list {listed} chambers, not {self.num_chambers}")
        seen = [False] * self.num_chambers
        for b in blocks:
            for c in b:
                if c < 0 or c >= self.num_chambers:
                    raise ValueError(f"type {i}: chamber {c} out of range")
                if seen[c]:
                    raise ValueError(f"type {i}: chamber {c} in two blocks")
                seen[c] = True
        if not all(seen):
            missing = seen.index(False)
            raise ValueError(f"type {i}: chamber {missing} not covered")

    # -- queries ---------------------------------------------------------

    def block_members(self, i: int, c: int) -> List[int]:
        return self.residues[i][self.block_of[i][c]]

    def partition(self, J) -> Tuple[List[int], int]:
        """Join of the type partitions over J: (class per chamber, #classes)."""
        key = frozenset(J)
        if key not in self._partitions:
            dsu = _DSU(self.num_chambers)
            for j in key:
                for b in self.residues[j]:
                    for c in b[1:]:
                        dsu.union(b[0], c)
            roots = {}
            out = []
            for c in range(self.num_chambers):
                r = dsu.find(c)
                if r not in roots:
                    roots[r] = len(roots)
                out.append(roots[r])
            self._partitions[key] = (out, len(roots))
        return self._partitions[key]

    def residue(self, c: int, J) -> List[int]:
        """All chambers reachable from `c` through the relations in J."""
        if not J:
            return [c]
        classes, _ = self.partition(J)
        target = classes[c]
        return [d for d in range(self.num_chambers) if classes[d] == target]

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        failures = []
        regular = not self.size_flags
        for msg in self.size_flags:
            failures.append(("regularity", msg))

        classes, count = self.partition(self.index_set)
        connected = count == 1
        if not connected:
            failures.append(("connectivity", f"{count} gallery components"))

        rank2 = {}
        M = self.root_system.coxeter_matrix
        for i in self.index_set:
            for j in self.index_set:
                if j <= i:
                    continue
                m = M[i][j]
                if m is INFINITE:
                    continue
                ok, witness = self._check_rank2(i, j, m)
                rank2[(i, j)] = ok
                if not ok:
                    failures.append((f"residue {{{i},{j}}}", witness))
        return ValidationReport(regular, connected, rank2, failures)

    def _check_rank2(self, i: int, j: int, m: int):
        classes, count = self.partition((i, j))
        for comp in range(count):
            chambers = [c for c in range(self.num_chambers) if classes[c] == comp]
            nodes = {}
            adj: List[set] = []

            def node(tag):
                if tag not in nodes:
                    nodes[tag] = len(adj)
                    adj.append(set())
                return nodes[tag]

            edges = set()
            parallel = False
            for c in chambers:
                u = node(("i", self.block_of[i][c]))
                v = node(("j", self.block_of[j][c]))
                if (u, v) in edges:
                    parallel = True
                edges.add((u, v))
                adj[u].add(v)
                adj[v].add(u)
            if parallel:
                return False, f"component of chamber {chambers[0]}: repeated flag"
            girth = _girth(adj)
            diam = _diameter(adj)
            if girth != 2 * m or diam != m:
                return (
                    False,
                    f"component of chamber {chambers[0]}: girth {girth}, "
                    f"diameter {diam}, expected {2 * m} and {m}",
                )
        return True, ""

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "format": CHAMBER_FORMAT,
            "root_system": self.kind,
            "q": {str(i): self.params[i] for i in self.index_set},
            "num_chambers": self.num_chambers,
            "residues": {str(i): self.residues[i] for i in self.index_set},
        }
        if self.vertex_ids is not None:
            out["vertex_ids"] = {str(i): list(v) for i, v in self.vertex_ids.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ChamberSystem)
            and self.to_json_dict() == other.to_json_dict()
        )


def _girth(adj) -> int:
    best = len(adj) + 1
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        fringe = [root]
        while fringe:
            nxt = []
            for u in fringe:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v and dist[v] >= dist[u]:
                        best = min(best, dist[u] + dist[v] + 1)
            fringe = nxt
    return best


def _diameter(adj) -> int:
    worst = 0
    for root in range(len(adj)):
        dist = {root: 0}
        fringe = [root]
        while fringe:
            nxt = []
            for u in fringe:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            fringe = nxt
        if len(dist) < len(adj):
            return len(adj) + 1  # disconnected: certainly not a polygon
        worst = max(worst, max(dist.values()))
    return worst


# ----------------------------------------------------------------------
# constructors


def from_bipartite_graph(edges, q0: Optional[int] = None, q1: Optional[int] = None) -> ChamberSystem:
    """Chamber system of a connected biregular bipartite graph.

    Chambers are the edges; the color-i blocks are the edge stars of the
    color-i vertices.  Color 0 is the bipartition class of the smallest
    vertex.  The kind is A1~ when both degrees agree and BC1~ otherwise.
    """
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if not edges:
        raise ValueError("empty edge list")
    verts = sorted({x for e in edges for x in e})
    if any(u == v for u, v in edges):
        raise ValueError("loops are not allowed")
    nbrs = {v: [] for v in verts}
    for k, (u, v) in enumerate(edges):
        nbrs[u].append(k)
        nbrs[v].append(k)

    color = {verts[0]: 0}
    fringe = [verts[0]]
    while fringe:
        u = fringe.pop()
        for k in nbrs[u]:
            a, b = edges[k]
            w = b if a == u else a
            if w not in color:
                color[w] = 1 - color[u]
                fringe.append(w)
            elif color[w] == color[u]:
                raise ValueError("graph is not bipartite")
    if len(color) < len(verts):
        raise ValueError("graph is not connected")

    degrees = {0: set(), 1: set()}
    for v in verts:
        degrees[color[v]].add(len(nbrs[v]))
    for c in (0, 1):
        if len(degrees[c]) != 1:
            raise ValueError(f"color-{c} vertices have mixed degrees {sorted(degrees[c])}")
    d0, d1 = degrees[0].pop(), degrees[1].pop()
    if q0 is None:
        q0 = d0 - 1
    if q1 is None:
        q1 = d1 - 1
    if d0 != q0 + 1 or d1 != q1 + 1:
        raise ValueError(f"degrees ({d0},{d1}) do not match q=({q0},{q1})")
    if q0 < 1 or q1 < 1:
        raise ValueError("thickness requires every vertex degree >= 2")

    residues = {0: [], 1: []}
    vertex_ids = {0: [0] * len(edges), 1: [0] * len(edges)}
    for v in verts:
        residues[color[v]].append(sorted(nbrs[v]))
        for k in nbrs[v]:
            vertex_ids[color[v]][k] = v
    kind = "A1~" if q0 == q1 else "BC1~"
    return ChamberSystem(kind, {0: q0, 1: q1}, len(edges), residues, vertex_ids)


def from_triangle_presentation(points: int, lam, triples) -> ChamberSystem:
    """Chamber system of the vertex-transitive quotient defined by a
    triangle presentation over `points` symbols.

    The triple set must be closed under cyclic rotation, assign a unique
    third symbol to every admissible pair, and the derived line system
    {L_x} with L_x = {y : (x, y, *) in T} must be a projective plane.  The
    resulting system has one vertex of each type; chambers are the ordered
    triples, and the three coordinate partitions give the three residue
    relations.  The output must pass `validate`, otherwise the presentation
    does not describe a quotient of a triangle building.
    """
    P = int(points)
    if P <= 0 or not triples:
        raise ValueError("empty presentation")
    lam = list(lam)
    if len(lam) != P or sorted(lam) != list(range(P)):
        raise ValueError("lambda must be a permutation of the points")
    T = sorted({tuple(int(x) for x in t) for t in triples})
    for t in T:
        if len(t) != 3 or any(x < 0 or x >= P for x in t):
            raise ValueError(f"bad triple {t}")
        if (t[1], t[2], t[0]) not in set(T):
            raise ValueError(f"triple set not closed under rotation at {t}")
    by_pair = {}
    for x, y, z in T:
        if (x, y) in by_pair:
            raise ValueError(f"pair ({x},{y}) has two completions")
        by_pair[(x, y)] = z

    lines = {}
    for x in range(P):
        lines[x] = sorted({y for (a, y) in by_pair if a == x})
    sizes = {len(v) for v in lines.values()}
    if len(sizes) != 1:
        raise ValueError("derived lines have mixed sizes")
    qsz = sizes.pop() - 1
    if qsz < 1 or P != qsz * qsz + qsz + 1:
        raise ValueError("derived line system is not a projective plane order")
    for a in range(P):
        for b in range(a + 1, P):
            through = [x for x in range(P) if a in lines[x] and b in lines[x]]
            if len(through) != 1:
                raise ValueError(f"points {a},{b} lie on {len(through)} common lines")

    chambers = {t: k for k, t in enumerate(T)}
    blocks = {0: {}, 1: {}, 2: {}}
    for t, k in chambers.items():
        blocks[2].setdefault(t[0], []).append(k)  # shared base-to-first edge
        blocks[0].setdefault(t[1], []).append(k)  # shared far edge
        blocks[1].setdefault(t[2], []).append(k)  # shared base-to-second edge
    residues = {i: list(blocks[i].values()) for i in range(3)}
    system = ChamberSystem("A2~", qsz, len(T), residues)
    report = system.validate()
    if not report.passed:
        raise ValueError(f"presentation fails the local checks:\n{report.summary()}")
    return system


# ----------------------------------------------------------------------
# file input and output


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def _require(ok: bool, what: str):
    """The structural check of a loader: a malformed field is a ValueError."""
    if not ok:
        raise ValueError(f"malformed input: {what}")


def _check_structure(data: dict, fmt: str):
    """Check the types of the fields `load` reads, before any is used."""
    if fmt == CHAMBER_FORMAT:
        q, residues, vertex_ids = data.get("q"), data.get("residues"), data.get("vertex_ids")
        _require(isinstance(data.get("root_system"), str), "root_system is not a string")
        _require(type(data.get("num_chambers")) is int, "num_chambers is not an integer")
        _require(isinstance(q, dict) and all(type(v) is int for v in q.values()),
                 "q does not map types to integers")
        _require(isinstance(residues, dict)
                 and all(isinstance(bl, list) and all(map(_int_list, bl)) for bl in residues.values()),
                 "residues do not map types to lists of integer lists")
        _require(vertex_ids is None
                 or isinstance(vertex_ids, dict) and all(map(_int_list, vertex_ids.values())),
                 "vertex_ids do not map types to integer lists")
    elif fmt == GRAPH_FORMAT:
        edges = data.get("edges")
        _require(isinstance(edges, list) and all(_int_list(e) and len(e) == 2 for e in edges),
                 "edges are not a list of integer pairs")
    elif fmt == TRIANGLE_FORMAT:
        _require(type(data.get("points")) is int, "points is not an integer")
        _require(_int_list(data.get("lambda")), "lambda is not an integer list")
        triples = data.get("triples")
        _require(isinstance(triples, list) and all(map(_int_list, triples)),
                 "triples are not a list of integer lists")


def read_document(path: str) -> dict:
    """The JSON object in `path`, with the fields of its format type-checked.

    Any malformed input raises ValueError (OSError if it cannot be read).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("the input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("the input is not a JSON object")
    _check_structure(data, data.get("format"))
    return data


def from_document(data: dict) -> ChamberSystem:
    """The chamber system of a document that `read_document` returned."""
    fmt = data.get("format")
    if fmt == CHAMBER_FORMAT:
        residues = {int(i): blocks for i, blocks in data["residues"].items()}
        q = {int(i): v for i, v in data["q"].items()}
        vertex_ids = data.get("vertex_ids")
        if vertex_ids is not None:
            vertex_ids = {int(i): list(v) for i, v in vertex_ids.items()}
        return ChamberSystem(
            data["root_system"], q, data["num_chambers"], residues, vertex_ids
        )
    if fmt == GRAPH_FORMAT:
        return from_bipartite_graph(data["edges"])
    if fmt == TRIANGLE_FORMAT:
        return from_triangle_presentation(data["points"], data["lambda"], data["triples"])
    raise ValueError(f"unknown file format: {fmt!r}")


def load(path: str) -> ChamberSystem:
    """Load a chamber system from any of the supported JSON formats."""
    return from_document(read_document(path))


def save(system: ChamberSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
