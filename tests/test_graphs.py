"""Coset graph construction, metric checks, folding, covers, export.

The metric checks read the coset table: the coset graph of a code is
distance-regular with the code's own intersection array, and the dense
oracles below compute its distances from the adjacency instead.
"""

import numpy as np
import pytest

from crcodes.codes import build_chain, extend_code
from crcodes.field import build_field_context
from crcodes.graphs import (
    build_coset_graph,
    check_antipodal,
    export_graph,
    fold,
    verify_cover,
    verify_antipodal_cover_array,
)
from crcodes.regularity import (
    CosetTable,
    IntersectionArray,
    cria_array,
    extended_cria_array,
    verify_completely_regular,
)
from oracles import (
    coset_leaders,
    cover_by_all_pairs,
    cover_by_edges,
    fold_by_edges,
    parse_graph6,
    syndrome,
)


def dense_distances(graph):
    """All-pairs BFS distances by boolean matrix products, from every base
    at once; -1 marks unreachable pairs.  Reference for the Cayley checks."""
    v = graph.vertex_count
    adj = np.zeros((v, v), dtype=np.float32)
    for x, row in enumerate(graph.adjacency):
        adj[x, row] = 1.0
    dist = np.full((v, v), -1, dtype=np.int16)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(v, dtype=bool)
    d = 0
    while frontier.any():
        d += 1
        frontier = ((frontier.astype(np.float32) @ adj) > 0) & (dist < 0)
        dist[frontier] = d
    return dist, adj


def dense_array(dist, adj):
    """Intersection array read off every pair, or None when a count varies."""
    diameter = int(dist.max())
    at = [(dist == l).astype(np.float32) for l in range(diameter + 1)]
    b, c = [], []
    for l in range(diameter + 1):
        pairs = dist == l
        down = (at[l - 1] @ adj)[pairs] if l else np.zeros(1)
        up = (at[l + 1] @ adj)[pairs] if l < diameter else np.zeros(1)
        if down.min() != down.max() or up.min() != up.max():
            return None
        b.append(int(up[0]))
        c.append(int(down[0]))
    return IntersectionArray(tuple(b[:-1]), tuple(c[1:]))


def dense_fibres(dist):
    """Classes of 'equal or at maximum distance' when that relation is
    transitive, else None."""
    related = (dist == 0) | (dist == dist.max())
    linked = related.astype(np.float32) @ related.astype(np.float32) > 0
    if (linked != related).any():
        return None
    return {tuple(np.flatnonzero(row)) for row in related}


def assert_same_cover(rep, want):
    """Every field of two cover reports agrees, the projection entry by entry."""
    assert np.array_equal(rep.projection, want.projection)
    assert (rep.fibre_size, rep.constant_fibres, rep.locally_bijective, rep.witness) == (
        want.fibre_size, want.constant_fibres, want.locally_bijective, want.witness)


def cayley(width, units):
    """Stand-in code whose coset graph is Cay(F_2^width, units)."""
    class Units:
        syndrome_width = width
        unit_syndromes = tuple(units)
        extended = False

    return Units()


@pytest.fixture(scope="module")
def graphs4(chain4):
    return [build_coset_graph(c) for c in chain4]


@pytest.fixture(scope="module")
def dists4(graphs4):
    return [dense_distances(g)[0] for g in graphs4]


def test_build_basics(chain4, chain6, graphs4):
    g = graphs4[2]
    assert g.vertex_count == 64 and g.valency == 15
    assert graphs4[0].vertex_count == 16 and graphs4[0].valency == 15
    for v in range(g.vertex_count):
        row = g.adjacency[v]
        assert list(row) == sorted(row)
        assert v not in row
    star = build_coset_graph(extend_code(chain6[3]))
    assert star.vertex_count == 1024 and star.valency == 64


def test_vertex_cap():
    class Shim:
        syndrome_width = 15
        unit_syndromes = ()

    with pytest.raises(ValueError, match="capped"):
        build_coset_graph(Shim())


def test_hamming_graph_is_complete(tables4, dists4):
    rep = verify_completely_regular(tables4[0])
    assert rep.completely_regular and tables4[0].rho == 1
    assert rep.array == cria_array(4, 0)
    assert (dists4[0][~np.eye(16, dtype=bool)] == 1).all()


def test_distance_regular_m4(tables4):
    for i in (1, 2):
        rep = verify_completely_regular(tables4[i])
        assert rep.completely_regular
        assert tables4[i].rho == 3
        assert rep.array == cria_array(4, i)


def test_distance_regular_m6(tables6):
    for i, table in enumerate(tables6):
        rep = verify_completely_regular(table)
        assert rep.completely_regular
        assert table.rho == (1 if i == 0 else 3)
        assert rep.array == cria_array(6, i)


def test_extended_graphs_m4(chain4):
    for i, code in enumerate(chain4):
        star = extend_code(code)
        table = CosetTable(star)
        rep = verify_completely_regular(table)
        assert rep.completely_regular
        assert table.rho == (2 if i == 0 else 4)
        assert rep.array == extended_cria_array(4, i)
        anti = check_antipodal(table)
        if i == 0:
            assert not anti.applicable
        else:
            assert anti.antipodal and anti.fibre_size == 1 << i
            assert not fold(star, anti.fibres).is_complete


def test_extended_graph_m6_deepest(chain6):
    star = extend_code(chain6[3])
    table = CosetTable(star)
    rep = verify_completely_regular(table)
    assert rep.completely_regular and table.rho == 4
    assert rep.array == extended_cria_array(6, 3)
    anti = check_antipodal(table)
    assert anti.antipodal and anti.fibre_size == 8


def plain_and_extended(chain):
    for code in chain:
        for c in (code, extend_code(code)):
            yield c, CosetTable(c), build_coset_graph(c)


@pytest.mark.parametrize("m", [4, 6])
def test_dense_oracle_agrees(request, m):
    for _, table, g in plain_and_extended(request.getfixturevalue(f"chain{m}")):
        dist, adj = dense_distances(g)
        v = np.arange(g.vertex_count)
        assert (dist == table.weights[v[:, None] ^ v[None, :]]).all()
        assert table.rho == dist.max()
        array = verify_completely_regular(table).array
        assert array == dense_array(dist, adj) is not None
        anti = check_antipodal(table)
        if anti.applicable:
            assert anti.antipodal
            assert set(map(tuple, anti.fibres.tolist())) == dense_fibres(dist)


@pytest.mark.parametrize("m", [4, 6])
def test_networkx_intersection_arrays(request, m):
    nx = pytest.importorskip("networkx")
    for _, table, g in plain_and_extended(request.getfixturevalue(f"chain{m}")):
        rows = parse_graph6(export_graph(g, "graph6"))
        other = nx.Graph()
        other.add_nodes_from(range(len(rows)))
        other.add_edges_from((v, w) for v, row in enumerate(rows) for w in row)
        b, c = nx.intersection_array(other)
        array = verify_completely_regular(table).array
        assert array == IntersectionArray(tuple(b), tuple(c))


def test_cayley_non_regular_witnessed():
    code = cayley(3, (1, 2, 3, 4))
    table = CosetTable(code)
    rep = verify_completely_regular(table)
    assert not rep.completely_regular
    assert rep.witness == {
        "weight": 1, "coset_a": 1, "coset_b": 4, "counts_a": (1, 1), "counts_b": (1, 3),
    }
    # vertices 1 and 4 lie on level 1 with 1 and 3 neighbours on level 2
    g = build_coset_graph(code)
    assert [int((table.weights[g.adjacency[v]] == 2).sum()) for v in (1, 4)] == [1, 3]
    assert dense_array(*dense_distances(g)) is None


def test_cayley_non_antipodal_witnessed():
    # the folded 7-cube is distance-regular of diameter 3, but its vertices at
    # distance 3 from 0 (weights 3 and 4 in F_2^6) and 0 are 36, no subgroup
    code = cayley(6, (1, 2, 4, 8, 16, 32, 63))
    table = CosetTable(code)
    rep = verify_completely_regular(table)
    assert rep.completely_regular
    assert rep.array == IntersectionArray((7, 6, 5), (1, 2, 3))
    anti = check_antipodal(table)
    assert anti.applicable and not anti.antipodal
    assert anti.witness == {"u": 7, "w": 11, "d": 2}
    weights = table.weights
    u, w, d = (anti.witness[k] for k in ("u", "w", "d"))
    assert weights[u] == weights[w] == 3 and weights[u ^ w] == d
    assert dense_fibres(dense_distances(build_coset_graph(code))[0]) is None
    assert not verify_antipodal_cover_array(code, table).applicable


def test_antipodal_m4(tables4):
    for i in (1, 2):
        anti = check_antipodal(tables4[i])
        assert anti.applicable and anti.antipodal
        assert anti.fibre_size == 1 << i
        assert anti.fibres.shape == (len(tables4[i]) >> i, 1 << i)
        covered = sorted(v for block in anti.fibres for v in block)
        assert covered == list(range(len(tables4[i])))
    # the zero fibre is the zero coset plus every deepest coset
    anti2 = check_antipodal(tables4[2])
    zero_block = next(b for b in anti2.fibres if 0 in b)
    weights = sorted(int(tables4[2].weights[s]) for s in zero_block)
    assert weights == [0, 3, 3, 3]
    assert not check_antipodal(tables4[0]).applicable


def test_fold_to_complete(chain4, chain6, tables4, tables6):
    for chain, tables, m in ((chain4, tables4, 4), (chain6, tables6, 6)):
        for i in range(1, len(chain)):
            anti = check_antipodal(tables[i])
            folded = fold(chain[i], anti.fibres)
            assert type(folded.vertex_count) is int and type(folded.is_complete) is bool
            assert folded.vertex_count == 1 << m
            assert folded.fibre_size == 1 << i
            assert folded.is_complete


@pytest.mark.parametrize("m", [4, 6])
def test_fold_agrees_with_edge_oracle(request, m):
    # the extended graphs fold to graphs that are not complete
    seen = set()
    for code, table, g in plain_and_extended(request.getfixturevalue(f"chain{m}")):
        anti = check_antipodal(table)
        if anti.antipodal:
            folded = fold(code, anti.fibres)
            assert folded == fold_by_edges(g.adjacency, anti.fibres)
            seen.add(folded.is_complete)
    assert seen == {True, False}


def test_fold_trivial_fibres(chain4):
    folded = fold(chain4[0], [(v,) for v in range(16)])
    assert (folded.vertex_count, folded.fibre_size) == (16, 1)
    assert folded.is_complete


def test_fold_rejects_partial_fibres(chain4):
    with pytest.raises(ValueError):
        fold(chain4[0], [(0, 1)])
    # a partition into pairs whose blocks are not the cosets of {0, 1}
    with pytest.raises(ValueError, match="cosets"):
        fold(chain4[0], [(0, 1), (2, 4), (3, 5)] + [(v, v + 1) for v in range(6, 16, 2)])


def test_fold_rejects_equal_blocks_that_are_not_cosets(chain4):
    # the block through 0 is the subgroup {0, 3}, but {1, 4} is no coset of it
    pairs = [(0, 3), (1, 4), (2, 7), (5, 6), (8, 11), (9, 10), (12, 15), (13, 14)]
    # the block through 0, {0, 1, 2, 4}, is no subgroup
    quads = [(0, 1, 2, 4), (3, 5, 6, 7), (8, 9, 10, 12), (11, 13, 14, 15)]
    for fibres in (pairs, quads):
        with pytest.raises(ValueError, match="cosets"):
            fold(chain4[0], fibres)


def test_fold_rejects_overlapping_fibres(chain4):
    # 2 is listed twice; the later fibre would take it and the rest pass
    with pytest.raises(ValueError, match="cosets"):
        fold(chain4[0], [(0, 1, 2)] + [(v, v ^ 1) for v in range(2, 16, 2)])


def test_covers_m4(chain4):
    for i in range(1, 3):
        leaders = coset_leaders(chain4[i])
        for j in range(i):
            rep = verify_cover(chain4[i], chain4[j])
            assert rep.verdict
            assert rep.fibre_size == 1 << (i - j)
            # the linear projection agrees with the coarse syndrome of each
            # fine coset leader
            assert np.array_equal(rep.projection, [syndrome(chain4[j], v) for v in leaders])


def test_covers_m6_and_composition(chain6):
    projs = {}
    for i in range(1, 4):
        leaders = coset_leaders(chain6[i])
        for j in range(i):
            rep = verify_cover(chain6[i], chain6[j])
            assert rep.verdict and rep.fibre_size == 1 << (i - j)
            assert np.array_equal(rep.projection, [syndrome(chain6[j], v) for v in leaders])
            projs[i, j] = rep.projection
    for s in range(1 << chain6[3].syndrome_width):
        assert projs[3, 1][s] == projs[2, 1][projs[3, 2][s]]
        assert projs[3, 0][s] == projs[1, 0][projs[3, 1][s]]


def test_extended_cover_m6(chain6):
    fine = extend_code(chain6[3])
    coarse = extend_code(chain6[1])
    rep = verify_cover(fine, coarse)
    assert rep.verdict and rep.fibre_size == 4


def test_cover_rejects_non_nested(chain4):
    with pytest.raises(ValueError, match="contained"):
        verify_cover(chain4[1], chain4[2])
    # a plain code does not lie in an extended one, which is one longer
    with pytest.raises(ValueError, match="contained"):
        verify_cover(chain4[2], extend_code(chain4[1]))


@pytest.mark.parametrize("m", [4, 6])
def test_cover_agrees_with_edge_oracle(request, m):
    chain = request.getfixturevalue(f"chain{m}")
    for ext in (False, True):
        codes = [extend_code(c) if ext else c for c in chain]
        for i in range(1, len(codes)):
            for j in range(i):
                rep = verify_cover(codes[i], codes[j])
                assert_same_cover(rep, cover_by_edges(codes[i], codes[j]))
                assert rep.verdict and rep.fibre_size == 1 << (i - j)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_cover_matches_all_pairs_oracle(m):
    chain = build_chain(build_field_context(m))
    for ext in (False, True):
        codes = [extend_code(c) if ext else c for c in chain]
        for i in range(1, len(codes)):
            for j in range(i):
                want = cover_by_all_pairs(codes[i], codes[j])
                assert_same_cover(verify_cover(codes[i], codes[j]), want)


@pytest.mark.parametrize("units", [(1, 2, 1, 2), (1, 2, 3, 0)], ids=["repeated", "zero"])
def test_cover_not_bijective_on_bad_coarse_units(units):
    # Cay(F_2^3, {1, 2, 4, 7}) maps onto a coarse "graph" whose units repeat
    # or include 0: an edge doubles up or becomes a loop at every vertex
    rep = verify_cover(cayley(3, (1, 2, 4, 7)), cayley(2, units))
    assert (rep.fibre_size, rep.constant_fibres) == (2, True)
    assert not rep.locally_bijective and not rep.verdict
    assert rep.witness == 0


def test_cover_fibres_not_constant_when_coarse_units_miss_syndromes():
    # the coarse units span only {0, 1, 2, 3} of F_2^3, so the syndromes
    # 4..7 have empty fibres while 0..3 have two vertices each
    rep = verify_cover(cayley(3, (1, 2, 4, 7)), cayley(3, (1, 2, 1, 2)))
    assert rep.fibre_size == 1 and not rep.constant_fibres and not rep.verdict
    assert np.array_equal(rep.projection, [0, 1, 2, 3, 1, 0, 3, 2])


@pytest.mark.parametrize("units", [(1, 2, 3, 3), (1, 2, 3, 0)], ids=["repeated", "zero"])
def test_cover_rejects_bad_fine_units(units):
    with pytest.raises(ValueError, match="nonzero and distinct"):
        verify_cover(cayley(2, units), cayley(2, (1, 2, 3, 3)))


def test_antipodal_cover_array(chain4, chain6, tables4, tables6):
    for chain, tables in ((chain4, tables4), (chain6, tables6)):
        for i in range(1, len(chain)):
            rep = verify_antipodal_cover_array(chain[i], tables[i])
            assert rep.applicable and rep.matches
            assert rep.fibre_size == 1 << i
    k16 = verify_antipodal_cover_array(chain4[0], tables4[0])
    assert not k16.applicable


def test_cover_array_not_applicable_extended(chain4):
    star = extend_code(chain4[1])
    rep = verify_antipodal_cover_array(star, CosetTable(star))
    assert not rep.applicable


def test_graph6_k4():
    assert export_graph(build_coset_graph(cayley(2, (1, 2, 3))), "graph6") == b"C~"


def test_graph6_roundtrip(graphs4):
    for g in graphs4[1:]:
        back = parse_graph6(export_graph(g, "graph6"))
        assert len(back) == g.vertex_count
        for v in range(g.vertex_count):
            assert back[v] == tuple(int(w) for w in g.adjacency[v])


def test_edge_list_and_json(graphs4):
    g = graphs4[2]
    lines = export_graph(g, "edge-list").decode().strip().split("\n")
    assert len(lines) == 64 * 15 // 2
    first = tuple(map(int, lines[0].split()))
    assert first[0] < first[1]
    import json

    payload = json.loads(export_graph(g, "json"))
    assert payload == {"vertices": 64, "adjacency": g.adjacency.tolist()}
    with pytest.raises(ValueError, match="format"):
        export_graph(g, "dot")
