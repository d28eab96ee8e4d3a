"""Coset graphs: construction, distance regularity, folding, covers.

Vertices are packed syndromes and adjacency is XOR with the unit syndromes
U, so a coset graph is the Cayley graph Cay(F_2^r, U).  Its translations are
automorphisms, so dist(x, y) = w(x ^ y), where w, the coset weight, comes
from one BFS from vertex 0, and the checks below read everything off w.
Other graphs go through the same BFS and counts from every vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode
from .gf2 import gf2_linear_map
from .regularity import IntersectionArray

__all__ = [
    "CosetGraph",
    "FoldedGraph",
    "DRReport",
    "AntipodalReport",
    "CoverReport",
    "CoverArrayReport",
    "ZeroAppendReport",
    "build_coset_graph",
    "distances_from",
    "check_distance_regular",
    "check_antipodal",
    "fold",
    "verify_cover",
    "verify_antipodal_cover_array",
    "check_zero_append_subgraph",
    "export_graph",
]

_VERTEX_CAP = 1 << 14
_SIX_BITS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


@dataclass(frozen=True)
class CosetGraph:
    vertex_count: int
    valency: int
    adjacency: np.ndarray  # vertex_count x valency, rows sorted

    def neighbor_rows(self) -> Sequence[Sequence[int]]:
        return self.adjacency


@dataclass(frozen=True)
class FoldedGraph:
    vertex_count: int
    adjacency: Tuple[Tuple[int, ...], ...]
    fibre_size: int

    def neighbor_rows(self) -> Sequence[Sequence[int]]:
        return self.adjacency

    @property
    def is_complete(self) -> bool:
        return all(
            len(row) == self.vertex_count - 1 for row in self.adjacency
        )


def build_coset_graph(code: LinearCode) -> CosetGraph:
    """Graph on all cosets, adjacent when syndromes differ by a unit."""
    size = 1 << code.syndrome_width
    if size > _VERTEX_CAP:
        raise ValueError("coset graph capped at 2^14 vertices")
    units = np.array(code.unit_syndromes, dtype=np.int64)
    if len(set(code.unit_syndromes)) != len(code.unit_syndromes) or (units == 0).any():
        raise ValueError("unit syndromes must be nonzero and distinct")
    verts = np.arange(size, dtype=np.int64)
    adj = np.sort(verts[:, None] ^ units[None, :], axis=1)
    return CosetGraph(size, len(code.unit_syndromes), adj)


def _neighbour_array(graph) -> np.ndarray:
    """Neighbour rows as one vertex_count x width integer array.

    Short rows are padded with the vertex itself: a loop stays on the
    vertex's own BFS level, so it changes neither the BFS nor the down/up
    counts, and it is never an edge i < j.
    """
    rows = graph.neighbor_rows()
    if isinstance(rows, np.ndarray):
        return rows
    width = max((len(row) for row in rows), default=0)
    padded = [list(row) + [v] * (width - len(row)) for v, row in enumerate(rows)]
    return np.array(padded, dtype=np.int64).reshape(len(rows), width)


def distances_from(graph, base: int = 0) -> np.ndarray:
    """BFS distance of every vertex from ``base`` (int16); -1 marks the
    vertices it does not reach.  On a coset graph, from 0 this is the coset
    weight w, and dist(x, y) = w(x ^ y)."""
    adj = _neighbour_array(graph)
    dist = np.full(graph.vertex_count, -1, dtype=np.int16)
    dist[base] = 0
    frontier = np.array([base])
    level = 0
    while frontier.size:
        level += 1
        seen = np.zeros(graph.vertex_count, dtype=bool)
        seen[adj[frontier].ravel()] = True
        frontier = np.flatnonzero(seen & (dist < 0))
        dist[frontier] = level
    return dist


@dataclass(frozen=True)
class DRReport:
    connected: bool
    distance_regular: bool
    array: Optional[IntersectionArray]
    diameter: int
    witness: Optional[Dict[str, int]] = None


def check_distance_regular(graph) -> DRReport:
    """Constant down/up neighbour counts on every distance level.

    A coset graph is checked from vertex 0 alone: its translations are
    automorphisms, so every base gives the same counts.  Any other graph is
    checked from every vertex.
    """
    bases = (0,) if isinstance(graph, CosetGraph) else range(graph.vertex_count)
    return _distance_regular(graph, ((b, distances_from(graph, b)) for b in bases))


def _distance_regular(graph, runs: Iterable[Tuple[int, np.ndarray]]) -> DRReport:
    """Compare the down/up counts of each (base, BFS distances) run with the
    first value seen on each level."""
    adj = _neighbour_array(graph)
    c_vals: List[int] = []
    b_vals: List[int] = []
    for base, dist in runs:
        if (dist < 0).any():
            return DRReport(False, False, None, -1,
                            {"unreachable_vertex": int(np.argmax(dist < 0))})
        near = dist[adj]
        down = (near == dist[:, None] - 1).sum(axis=1)
        up = (near == dist[:, None] + 1).sum(axis=1)
        for level in range(int(dist.max()) + 1):
            sel = np.flatnonzero(dist == level)
            if level == len(c_vals):
                c_vals.append(int(down[sel[0]]))
                b_vals.append(int(up[sel[0]]))
            bad = (down[sel] != c_vals[level]) | (up[sel] != b_vals[level])
            if bad.any():
                return DRReport(
                    True, False, None, len(c_vals) - 1,
                    {"base": base, "vertex": int(sel[bad.argmax()]), "level": level},
                )
    diameter = len(c_vals) - 1
    array = IntersectionArray(b=tuple(b_vals[:diameter]), c=tuple(c_vals[1:]))
    return DRReport(True, True, array, diameter)


@dataclass(frozen=True)
class AntipodalReport:
    applicable: bool
    antipodal: bool
    fibre_size: int
    fibres: Optional[Tuple[Tuple[int, ...], ...]]
    witness: Optional[Dict[str, int]] = None


def check_antipodal(graph: CosetGraph) -> AntipodalReport:
    """Is being at maximum distance (or equal) an equivalence relation on
    this coset graph?  Diameter below 3 is reported not applicable.

    x and y are related iff x ^ y lies in A = {0} + {s : w(s) = D}, so the
    relation is an equivalence iff A is closed under XOR, and its classes
    are then the cosets x ^ A, all of one size.
    """
    return _antipodal(distances_from(graph))


def _antipodal(weights: np.ndarray) -> AntipodalReport:
    diameter = int(weights.max())
    if diameter < 3:
        return AntipodalReport(False, False, 0, None)
    in_a = (weights == 0) | (weights == diameter)
    members = np.flatnonzero(in_a)
    for g in members:
        bad = ~in_a[members ^ g]
        if bad.any():
            y = int(members[bad.argmax()])
            return AntipodalReport(True, False, 0, None,
                                   {"u": int(g), "w": y, "d": int(weights[g ^ y])})
    # the smallest vertex of each coset x ^ A is the one with no bit at any
    # leading bit of A, so listing those in order lists the fibres by their
    # smallest vertex
    heads = 0
    for s in members[1:]:
        heads |= 1 << (int(s).bit_length() - 1)
    smallest = np.flatnonzero((np.arange(len(weights)) & heads) == 0)
    fibres = np.sort(smallest[:, None] ^ members[None, :], axis=1)
    return AntipodalReport(True, True, len(members), tuple(map(tuple, fibres.tolist())))


def fold(graph, fibres: Sequence[Sequence[int]]) -> FoldedGraph:
    """Quotient on the fibre partition; blocks adjacent when any edge crosses."""
    blocks = len(fibres)
    block_of = np.full(graph.vertex_count, -1, dtype=np.int64)
    for i, block in enumerate(fibres):
        block_of[list(block)] = i
    if (block_of < 0).any():
        raise ValueError("fibres do not cover the vertex set")
    pairs = np.unique(block_of[:, None] * blocks + block_of[_neighbour_array(graph)])
    src, dst = np.divmod(pairs, blocks)
    crossing = src != dst
    src, dst = src[crossing], dst[crossing]
    rows = np.split(dst, np.cumsum(np.bincount(src, minlength=blocks))[:-1])
    return FoldedGraph(
        blocks,
        tuple(tuple(row.tolist()) for row in rows),
        len(fibres[0]),
    )


@dataclass(frozen=True)
class CoverReport:
    fibre_size: int
    constant_fibres: bool
    locally_bijective: bool
    projection: Tuple[int, ...]
    witness: Optional[int] = None

    @property
    def verdict(self) -> bool:
        return self.constant_fibres and self.locally_bijective


def verify_cover(
    fine_graph: CosetGraph,
    coarse_graph: CosetGraph,
    fine_code: LinearCode,
    coarse_code: LinearCode,
) -> CoverReport:
    """Project fine cosets onto the coarse code's cosets and verify the
    projection is a covering map: constant fibres and a bijection between
    each vertex's edges and its image's edges."""
    # fine lies in coarse exactly when the fine syndrome fixes the coarse one
    # through a linear map, sending each fine unit syndrome to the coarse one
    proj = gf2_linear_map(
        zip(fine_code.unit_syndromes, coarse_code.unit_syndromes),
        fine_code.syndrome_width, coarse_code.syndrome_width,
    )
    if proj is None:
        raise ValueError("fine code is not contained in the coarse code")
    expected = fine_graph.vertex_count // coarse_graph.vertex_count
    counts = np.bincount(proj, minlength=coarse_graph.vertex_count)
    constant = bool((counts == expected).all())
    images = np.sort(proj[fine_graph.adjacency], axis=1)
    targets = coarse_graph.adjacency[proj]
    ok_rows = (images == targets).all(axis=1)
    witness = None if ok_rows.all() else int(np.flatnonzero(~ok_rows)[0])
    return CoverReport(expected, constant, witness is None, tuple(proj.tolist()), witness)


@dataclass(frozen=True)
class CoverArrayReport:
    applicable: bool
    matches: Optional[bool]
    array: Optional[IntersectionArray]
    folded_vertices: int
    fibre_size: int


def verify_antipodal_cover_array(graph: CosetGraph) -> CoverArrayReport:
    """For a diameter-3 antipodal cover of a complete graph, the array must
    be (N-1, (r-1)c2, 1; 1, c2, N-1) with the graph's own c2."""
    weights = distances_from(graph)
    dr = _distance_regular(graph, [(0, weights)])
    if not dr.distance_regular or dr.diameter != 3:
        return CoverArrayReport(False, None, dr.array, 0, 0)
    anti = _antipodal(weights)
    if not anti.antipodal:
        return CoverArrayReport(False, None, dr.array, 0, 0)
    folded = fold(graph, anti.fibres)
    if not folded.is_complete:
        return CoverArrayReport(False, None, dr.array, folded.vertex_count, anti.fibre_size)
    n_folded, r, c2 = folded.vertex_count, anti.fibre_size, dr.array.c[1]
    expected = IntersectionArray(
        b=(n_folded - 1, (r - 1) * c2, 1), c=(1, c2, n_folded - 1)
    )
    return CoverArrayReport(True, dr.array == expected, dr.array, n_folded, r)


@dataclass(frozen=True)
class ZeroAppendReport:
    injective: bool
    edges_total: int
    edges_preserved: int
    extra_edges: int
    induced_subgraph: bool


def check_zero_append_subgraph(
    small_code: LinearCode,
    big_code: LinearCode,
    small_graph: Optional[CosetGraph] = None,
    big_graph: Optional[CosetGraph] = None,
) -> ZeroAppendReport:
    """Embed the small coset space into the big one by writing each
    projection bit at the position of its matching functional and zero at
    the new ones, then test whether the image is an induced subgraph.

    The verdict is computed, not presumed; for this family the extra
    functional bit kills the edges whose position constant it detects, so
    the check reports a negative result.
    """
    if small_code.ctx is not big_code.ctx and small_code.ctx.m != big_code.ctx.m:
        raise ValueError("codes live over different fields")
    small_masks = list(small_code.proj_masks)
    big_masks = list(big_code.proj_masks)
    try:
        slot = [big_masks.index(mask) for mask in small_masks]
    except ValueError as exc:
        raise ValueError("projection functionals do not align") from exc
    m = small_code.ctx.m

    def embed(s: int) -> int:
        out = s & ((1 << m) - 1)
        for k, j in enumerate(slot):
            if s >> (m + k) & 1:
                out |= 1 << (m + j)
        return out

    if small_graph is None:
        small_graph = build_coset_graph(small_code)
    if big_graph is None:
        big_graph = build_coset_graph(big_code)
    image = [embed(s) for s in range(small_graph.vertex_count)]
    injective = len(set(image)) == len(image)
    image_set = set(image)
    big_adj = {v: set(int(w) for w in big_graph.adjacency[v]) for v in image}
    total = preserved = 0
    for s in range(small_graph.vertex_count):
        for t in small_graph.adjacency[s]:
            if s < t:
                total += 1
                if image[t] in big_adj[image[s]]:
                    preserved += 1
    extra = 0
    for v in image:
        extra += sum(1 for w in big_adj[v] if w in image_set)
    extra = extra // 2 - preserved
    return ZeroAppendReport(
        injective, total, preserved, extra,
        injective and preserved == total and extra == 0,
    )


def _graph6_bytes(graph) -> bytes:
    v = graph.vertex_count
    if v > 258047:
        raise ValueError("vertex count beyond supported graph6 range")
    out = bytearray()
    if v <= 62:
        out.append(v + 63)
    else:
        out.append(126)
        out.append(((v >> 12) & 63) + 63)
        out.append(((v >> 6) & 63) + 63)
        out.append((v & 63) + 63)
    adj = _neighbour_array(graph)
    src = np.repeat(np.arange(v, dtype=np.int64), adj.shape[1])
    dst = adj.ravel()
    edge = src < dst
    i, j = src[edge], dst[edge]
    # bit j(j-1)/2 + i of the upper triangle, column by column, padded to 6
    bits = np.zeros(-(-(v * (v - 1) // 2) // 6) * 6, dtype=np.uint8)
    bits[j * (j - 1) // 2 + i] = 1
    out += (bits.reshape(-1, 6) @ _SIX_BITS + 63).tobytes()
    return bytes(out)


def export_graph(graph, fmt: str) -> bytes:
    """Serialize with vertices in syndrome order: graph6, edge-list, json."""
    if fmt == "graph6":
        return _graph6_bytes(graph)
    if fmt == "edge-list":
        lines = []
        for v, row in enumerate(graph.neighbor_rows()):
            for w in row:
                if v < w:
                    lines.append(f"{v} {int(w)}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        rows = graph.neighbor_rows()
        rows = (rows.tolist() if isinstance(rows, np.ndarray)
                else [[int(w) for w in row] for row in rows])
        body = ",\n".join(map(json.dumps, rows))
        return f'{{"vertices": {graph.vertex_count}, "adjacency": [\n{body}\n]}}\n'.encode()
    raise ValueError(f"unsupported export format: {fmt}")
