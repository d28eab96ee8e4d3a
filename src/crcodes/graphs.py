"""Coset graphs: construction, antipodality, folding, covers, export.

Vertices are packed syndromes and adjacency is XOR with the unit syndromes
U, so a coset graph is the Cayley graph Cay(F_2^r, U).  Its translations are
automorphisms, so dist(x, y) = w(x ^ y) for the coset weight w, and the
graph rows read the coset table: the graph is distance-regular with the
code's own intersection array (``verify_completely_regular``), and
antipodality, the fold and the cover array come from w and U alone.
The fold reduces syndromes by a basis of the fibre through 0, and a
covering map is the linear map of syndromes from the fine code's basis
solve; only export reads the adjacency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .codes import LinearCode, _syndrome_map
from .regularity import CosetTable, IntersectionArray, verify_completely_regular

__all__ = [
    "CosetGraph",
    "FoldedGraph",
    "AntipodalReport",
    "CoverReport",
    "CoverArrayReport",
    "build_coset_graph",
    "check_antipodal",
    "fold",
    "verify_cover",
    "verify_antipodal_cover_array",
    "export_graph",
]

_VERTEX_CAP = 1 << 14
_SIX_BITS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


@dataclass(frozen=True)
class CosetGraph:
    vertex_count: int
    valency: int
    adjacency: np.ndarray  # vertex_count x valency, rows sorted


@dataclass(frozen=True)
class FoldedGraph:
    vertex_count: int
    fibre_size: int
    is_complete: bool


def _simple(units: Sequence[int]) -> bool:
    """Does each unit syndrome give an edge of its own and no loop?"""
    return 0 not in units and len(set(units)) == len(units)


def build_coset_graph(code: LinearCode) -> CosetGraph:
    """Graph on all cosets, adjacent when syndromes differ by a unit."""
    size = 1 << code.syndrome_width
    if size > _VERTEX_CAP:
        raise ValueError("coset graph capped at 2^14 vertices")
    if not _simple(code.unit_syndromes):
        raise ValueError("unit syndromes must be nonzero and distinct")
    units = np.array(code.unit_syndromes, dtype=np.int64)
    verts = np.arange(size, dtype=np.int64)
    adj = np.sort(verts[:, None] ^ units[None, :], axis=1)
    return CosetGraph(size, len(code.unit_syndromes), adj)


@dataclass(frozen=True, eq=False)
class AntipodalReport:
    applicable: bool
    antipodal: bool
    fibre_size: int
    fibres: Optional[np.ndarray]  # one fibre a row, rows by smallest vertex
    witness: Optional[Dict[str, int]] = None


def check_antipodal(table: CosetTable) -> AntipodalReport:
    """Is being at maximum distance (or equal) an equivalence relation on
    this coset graph?  Diameter below 3 is reported not applicable.

    x and y are related iff x ^ y lies in A = {0} + {s : w(s) = D}, so the
    relation is an equivalence iff A is closed under XOR, and its classes
    are then the cosets x ^ A, all of one size.
    """
    weights, diameter = table.weights, table.rho
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
    return AntipodalReport(True, True, len(members), fibres)


def fold(code: LinearCode, fibres: Sequence[Sequence[int]]) -> FoldedGraph:
    """Quotient of the coset graph by its fibres, the cosets x ^ A of the
    fibre A through 0: the Cayley graph Cay(F_2^r / A, U mod A), complete
    iff U mod A meets every class but A itself."""
    size = 1 << code.syndrome_width
    block_of = np.full(size, -1, dtype=np.int64)
    listed = np.concatenate(fibres)
    block_of[listed] = np.repeat(np.arange(len(fibres)), list(map(len, fibres)))
    # reduce every syndrome by an echelon basis of the span S of A: each
    # coset x ^ S has one reduced member, with no bit at a leading bit
    reduced, rest, rank = np.arange(size), np.flatnonzero(block_of == block_of[0]), 0
    while rest.any():
        row = rest.max()
        rest = np.minimum(rest, rest ^ row)
        reduced = np.minimum(reduced, reduced ^ row)
        rank += 1
    rep = np.zeros(len(fibres), dtype=np.int64)
    rep[block_of] = reduced
    count = int(np.count_nonzero(np.bincount(block_of + 1)[1:]))
    # a partition, each fibre inside one coset of S, as many fibres as cosets
    if len(listed) != size or (block_of < 0).any() or (
            rep[block_of] != reduced).any() or count << rank != size:
        raise ValueError("fibres are not the cosets of the fibre through 0")
    hit = set(reduced[np.asarray(code.unit_syndromes)].tolist()) - {0}
    return FoldedGraph(count, 1 << rank, len(hit) == count - 1)


@dataclass(frozen=True, eq=False)
class CoverReport:
    fibre_size: int
    constant_fibres: bool
    locally_bijective: bool
    projection: np.ndarray  # coarse syndrome of every fine syndrome
    witness: Optional[int] = None

    @property
    def verdict(self) -> bool:
        return self.constant_fibres and self.locally_bijective


def verify_cover(fine_code: LinearCode, coarse_code: LinearCode) -> CoverReport:
    """Project fine cosets onto the coarse code's cosets and verify the
    projection is a covering map: constant fibres and a bijection between
    each vertex's edges and its image's edges.

    Fine lies in coarse exactly when a linear map P of syndromes sends each
    fine unit syndrome to the coarse one, and P is the projection.  It takes
    x ~ x ^ U_f[p] to P(x) ~ P(x) ^ U_c[p], so every vertex's edges map one
    to one onto its image's exactly when the coarse unit syndromes are
    nonzero and distinct; otherwise every vertex fails alike, witness 0.
    """
    if not _simple(fine_code.unit_syndromes):
        raise ValueError("unit syndromes must be nonzero and distinct")
    proj = _syndrome_map(fine_code, np.asarray(coarse_code.unit_syndromes, dtype=np.int64))
    if proj is None:
        raise ValueError("fine code is not contained in the coarse code")
    expected = len(proj) >> coarse_code.syndrome_width
    counts = np.bincount(proj, minlength=1 << coarse_code.syndrome_width)
    bijective = _simple(coarse_code.unit_syndromes)
    return CoverReport(expected, bool((counts == expected).all()), bijective,
                       proj, None if bijective else 0)


@dataclass(frozen=True)
class CoverArrayReport:
    applicable: bool
    matches: Optional[bool]
    array: Optional[IntersectionArray]
    folded_vertices: int
    fibre_size: int


def verify_antipodal_cover_array(code: LinearCode, table: CosetTable) -> CoverArrayReport:
    """For a diameter-3 antipodal cover of a complete graph, the array must
    be (N-1, (r-1)c2, 1; 1, c2, N-1) with the graph's own c2."""
    dr = verify_completely_regular(table)
    if not dr.completely_regular or table.rho != 3:
        return CoverArrayReport(False, None, dr.array, 0, 0)
    anti = check_antipodal(table)
    if not anti.antipodal:
        return CoverArrayReport(False, None, dr.array, 0, 0)
    folded = fold(code, anti.fibres)
    if not folded.is_complete:
        return CoverArrayReport(False, None, dr.array, folded.vertex_count, anti.fibre_size)
    n_folded, r, c2 = folded.vertex_count, anti.fibre_size, dr.array.c[1]
    expected = IntersectionArray(
        b=(n_folded - 1, (r - 1) * c2, 1), c=(1, c2, n_folded - 1)
    )
    return CoverArrayReport(True, dr.array == expected, dr.array, n_folded, r)


def _graph6_bytes(graph: CosetGraph) -> bytes:
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
    adj = graph.adjacency
    src = np.repeat(np.arange(v, dtype=np.int64), adj.shape[1])
    dst = adj.ravel()
    edge = src < dst
    i, j = src[edge], dst[edge]
    # bit j(j-1)/2 + i of the upper triangle, column by column, padded to 6
    bits = np.zeros(-(-(v * (v - 1) // 2) // 6) * 6, dtype=np.uint8)
    bits[j * (j - 1) // 2 + i] = 1
    out += (bits.reshape(-1, 6) @ _SIX_BITS + 63).tobytes()
    return bytes(out)


def export_graph(graph: CosetGraph, fmt: str) -> bytes:
    """Serialize with vertices in syndrome order: graph6, edge-list, json."""
    if fmt == "graph6":
        return _graph6_bytes(graph)
    if fmt == "edge-list":
        lines = []
        for v, row in enumerate(graph.adjacency):
            for w in row:
                if v < w:
                    lines.append(f"{v} {int(w)}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        body = ",\n".join(map(json.dumps, graph.adjacency.tolist()))
        return f'{{"vertices": {graph.vertex_count}, "adjacency": [\n{body}\n]}}\n'.encode()
    raise ValueError(f"unsupported export format: {fmt}")
