"""Coset graph construction, metric checks, folding, covers, export."""

import numpy as np
import pytest

from crcodes.codes import extend_code
from crcodes.graphs import (
    FoldedGraph,
    build_coset_graph,
    check_antipodal,
    check_distance_regular,
    check_zero_append_subgraph,
    distances_from,
    export_graph,
    fold,
    verify_cover,
    verify_antipodal_cover_array,
)
from crcodes.regularity import (
    IntersectionArray,
    cria_array,
    extended_cria_array,
)
from oracles import coset_leaders, parse_graph6


def dense_distances(graph):
    """All-pairs BFS distances by boolean matrix products, from every base
    at once; -1 marks unreachable pairs.  Reference for the Cayley checks."""
    v = graph.vertex_count
    adj = np.zeros((v, v), dtype=np.float32)
    for x, row in enumerate(graph.neighbor_rows()):
        adj[x, list(row)] = 1.0
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


def cayley(width, units):
    """Coset-style graph on F_2^width with the given connection set."""
    class Units:
        syndrome_width = width
        unit_syndromes = tuple(units)

    return build_coset_graph(Units())


@pytest.fixture(scope="module")
def graphs4(chain4):
    return [build_coset_graph(c) for c in chain4]


@pytest.fixture(scope="module")
def dists4(graphs4):
    return [dense_distances(g)[0] for g in graphs4]


@pytest.fixture(scope="module")
def graphs6(chain6):
    return [build_coset_graph(c) for c in chain6]


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


def test_hamming_graph_is_complete(graphs4, dists4):
    rep = check_distance_regular(graphs4[0])
    assert rep.distance_regular and rep.diameter == 1
    assert rep.array == cria_array(4, 0)
    assert (dists4[0][~np.eye(16, dtype=bool)] == 1).all()


def test_distance_regular_m4(graphs4):
    for i in (1, 2):
        rep = check_distance_regular(graphs4[i])
        assert rep.connected and rep.distance_regular
        assert rep.diameter == 3
        assert rep.array == cria_array(4, i)


def test_distance_regular_m6(graphs6):
    for i, g in enumerate(graphs6):
        rep = check_distance_regular(g)
        assert rep.connected and rep.distance_regular
        assert rep.diameter == (1 if i == 0 else 3)
        assert rep.array == cria_array(6, i)


def test_extended_graphs_m4(chain4):
    for i, code in enumerate(chain4):
        star = extend_code(code)
        g = build_coset_graph(star)
        rep = check_distance_regular(g)
        assert rep.distance_regular
        assert rep.diameter == (2 if i == 0 else 4)
        assert rep.array == extended_cria_array(4, i)
        anti = check_antipodal(g)
        if i == 0:
            assert not anti.applicable
        else:
            assert anti.antipodal and anti.fibre_size == 1 << i
            assert not fold(g, anti.fibres).is_complete


def test_extended_graph_m6_deepest(chain6):
    star = extend_code(chain6[3])
    g = build_coset_graph(star)
    rep = check_distance_regular(g)
    assert rep.distance_regular and rep.diameter == 4
    assert rep.array == extended_cria_array(6, 3)
    anti = check_antipodal(g)
    assert anti.antipodal and anti.fibre_size == 8


def test_graph_distance_is_coset_weight(chain6, graphs6, tables6):
    for table, g in zip(tables6, graphs6):
        assert np.array_equal(distances_from(g), table.weights)


@pytest.mark.parametrize("m", [4, 6])
def test_dense_oracle_agrees(request, m):
    for code in request.getfixturevalue(f"chain{m}"):
        for g in (build_coset_graph(code), build_coset_graph(extend_code(code))):
            dist, adj = dense_distances(g)
            weights = distances_from(g)
            v = np.arange(g.vertex_count)
            assert (dist == weights[v[:, None] ^ v[None, :]]).all()
            rep = check_distance_regular(g)
            assert rep.diameter == dist.max()
            assert rep.array == dense_array(dist, adj) is not None
            anti = check_antipodal(g)
            if anti.applicable:
                assert anti.antipodal and set(anti.fibres) == dense_fibres(dist)


@pytest.mark.parametrize("m", [4, 6])
def test_networkx_intersection_arrays(request, m):
    nx = pytest.importorskip("networkx")
    for code in request.getfixturevalue(f"chain{m}"):
        for g in (build_coset_graph(code), build_coset_graph(extend_code(code))):
            rows = parse_graph6(export_graph(g, "graph6"))
            other = nx.Graph()
            other.add_nodes_from(range(len(rows)))
            other.add_edges_from((v, w) for v, row in enumerate(rows) for w in row)
            b, c = nx.intersection_array(other)
            assert check_distance_regular(g).array == IntersectionArray(tuple(b), tuple(c))


def test_non_regular_graph_witnessed():
    path = FoldedGraph(4, ((1,), (0, 2), (1, 3), (2,)), 1)
    rep = check_distance_regular(path)
    assert rep.connected and not rep.distance_regular
    assert rep.witness is not None


def test_disconnected_graph_witnessed():
    two_edges = FoldedGraph(4, ((1,), (0,), (3,), (2,)), 1)
    rep = check_distance_regular(two_edges)
    assert not rep.connected and not rep.distance_regular
    assert "unreachable_vertex" in rep.witness


def test_cayley_disconnected_witnessed():
    g = cayley(3, (1, 2))  # the units span only the vertices 0..3
    rep = check_distance_regular(g)
    assert not rep.connected and not rep.distance_regular
    assert rep.witness == {"unreachable_vertex": 4}
    assert (dense_distances(g)[0] < 0).any()


def test_cayley_non_regular_witnessed():
    g = cayley(3, (1, 2, 3, 4))
    rep = check_distance_regular(g)
    assert rep.connected and not rep.distance_regular
    assert rep.witness == {"base": 0, "vertex": 4, "level": 1}
    # vertices 1 and 4 lie on level 1 with 1 and 3 neighbours on level 2
    weights = distances_from(g)
    assert [int((weights[g.adjacency[v]] == 2).sum()) for v in (1, 4)] == [1, 3]
    assert dense_array(*dense_distances(g)) is None


def test_cayley_non_antipodal_witnessed():
    # the folded 7-cube is distance-regular of diameter 3, but its vertices at
    # distance 3 from 0 (weights 3 and 4 in F_2^6) and 0 are 36, no subgroup
    g = cayley(6, (1, 2, 4, 8, 16, 32, 63))
    rep = check_distance_regular(g)
    assert rep.distance_regular
    assert rep.array == IntersectionArray((7, 6, 5), (1, 2, 3))
    anti = check_antipodal(g)
    assert anti.applicable and not anti.antipodal
    weights = distances_from(g)
    u, w, d = (anti.witness[k] for k in ("u", "w", "d"))
    assert weights[u] == weights[w] == 3 and weights[u ^ w] == d
    assert d not in (0, 3)
    assert dense_fibres(dense_distances(g)[0]) is None
    assert not verify_antipodal_cover_array(g).applicable


def test_antipodal_m4(graphs4, tables4):
    for i in (1, 2):
        anti = check_antipodal(graphs4[i])
        assert anti.applicable and anti.antipodal
        assert anti.fibre_size == 1 << i
        covered = sorted(v for block in anti.fibres for v in block)
        assert covered == list(range(graphs4[i].vertex_count))
    # the zero fibre is the zero coset plus every deepest coset
    anti2 = check_antipodal(graphs4[2])
    zero_block = next(b for b in anti2.fibres if 0 in b)
    weights = sorted(int(tables4[2].weights[s]) for s in zero_block)
    assert weights == [0, 3, 3, 3]
    assert not check_antipodal(graphs4[0]).applicable


def test_fold_to_complete(graphs4, graphs6):
    for graphs, m in ((graphs4, 4), (graphs6, 6)):
        for i in range(1, len(graphs)):
            anti = check_antipodal(graphs[i])
            folded = fold(graphs[i], anti.fibres)
            assert folded.vertex_count == 1 << m
            assert folded.is_complete


def test_fold_trivial_fibres(graphs4):
    g = graphs4[0]
    folded = fold(g, [(v,) for v in range(g.vertex_count)])
    assert folded.vertex_count == g.vertex_count
    assert folded.is_complete


def test_fold_rejects_partial_fibres(graphs4):
    with pytest.raises(ValueError):
        fold(graphs4[0], [(0, 1)])


def test_covers_m4(chain4, graphs4):
    for i in range(1, 3):
        leaders = coset_leaders(chain4[i])
        for j in range(i):
            rep = verify_cover(graphs4[i], graphs4[j], chain4[i], chain4[j])
            assert rep.verdict
            assert rep.fibre_size == 1 << (i - j)
            # the linear projection agrees with the coarse syndrome of each
            # fine coset leader
            assert rep.projection == tuple(chain4[j].syndrome(v) for v in leaders)


def test_covers_m6_and_composition(chain6, graphs6):
    projs = {}
    for i in range(1, 4):
        leaders = coset_leaders(chain6[i])
        for j in range(i):
            rep = verify_cover(graphs6[i], graphs6[j], chain6[i], chain6[j])
            assert rep.verdict and rep.fibre_size == 1 << (i - j)
            assert rep.projection == tuple(chain6[j].syndrome(v) for v in leaders)
            projs[i, j] = rep.projection
    for s in range(graphs6[3].vertex_count):
        assert projs[3, 1][s] == projs[2, 1][projs[3, 2][s]]
        assert projs[3, 0][s] == projs[1, 0][projs[3, 1][s]]


def test_extended_cover_m6(chain6):
    fine = extend_code(chain6[3])
    coarse = extend_code(chain6[1])
    rep = verify_cover(
        build_coset_graph(fine), build_coset_graph(coarse), fine, coarse
    )
    assert rep.verdict and rep.fibre_size == 4


def test_cover_rejects_non_nested(chain4, graphs4):
    with pytest.raises(ValueError, match="contained"):
        verify_cover(graphs4[1], graphs4[2], chain4[1], chain4[2])


def test_antipodal_cover_array(graphs4, graphs6):
    for graphs in (graphs4, graphs6):
        for i in range(1, len(graphs)):
            rep = verify_antipodal_cover_array(graphs[i])
            assert rep.applicable and rep.matches
            assert rep.fibre_size == 1 << i
    k16 = verify_antipodal_cover_array(graphs4[0])
    assert not k16.applicable


def test_cover_array_not_applicable_extended(chain4):
    star = extend_code(chain4[1])
    g = build_coset_graph(star)
    rep = verify_antipodal_cover_array(g)
    assert not rep.applicable


def test_zero_append_subgraph_m4(chain4):
    rep01 = check_zero_append_subgraph(chain4[0], chain4[1])
    assert rep01.injective
    assert (rep01.edges_preserved, rep01.edges_total) == (72, 120)
    assert rep01.extra_edges == 0
    assert not rep01.induced_subgraph
    rep12 = check_zero_append_subgraph(chain4[1], chain4[2])
    assert (rep12.edges_preserved, rep12.edges_total) == (144, 240)
    assert not rep12.induced_subgraph


def test_zero_append_subgraph_m6_spot(chain6):
    rep = check_zero_append_subgraph(chain6[0], chain6[1])
    assert rep.injective and not rep.induced_subgraph
    assert (rep.edges_preserved, rep.edges_total) == (1120, 2016)


def test_graph6_k4():
    class K4:
        vertex_count = 4

        def neighbor_rows(self):
            return [tuple(j for j in range(4) if j != i) for i in range(4)]

    assert export_graph(K4(), "graph6") == b"C~"


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
    folded = fold(g, check_antipodal(g).fibres)
    assert json.loads(export_graph(folded, "json")) == {
        "vertices": folded.vertex_count, "adjacency": [list(r) for r in folded.adjacency],
    }
    with pytest.raises(ValueError, match="format"):
        export_graph(g, "dot")
