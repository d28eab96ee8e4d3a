"""Brute-force references that the tests compare the library against.

Nothing in the package calls these: designs are checked there from a
histogram of pair syndromes, graph6 is only ever written, cosets are known
by their weights alone and moved by a linear map of syndromes rather than by
their leaders, complete regularity is counted over the whole weight
array at once, a coset graph is folded as the Cayley graph of a quotient
group rather than by the edges that cross its fibres, and a covering map is
a linear map of syndromes, checked on the unit syndromes rather than edge by
edge.
"""

from collections import deque
from itertools import combinations
from math import comb

import numpy as np

from crcodes.gf2 import bit_support
from crcodes.graphs import CoverReport, FoldedGraph, build_coset_graph
from crcodes.regularity import DesignReport, IntersectionArray, RegularityReport
from crcodes.transitivity import OrbitPartition


def weight3_codewords(code):
    """All weight-3 codewords, by scanning label pairs."""
    if code.extended:
        raise ValueError("extended codes have no odd-weight words")
    ctx = code.ctx
    exp, log, qterm = ctx.gm.exp, ctx.gm.log, ctx.qterm
    out = []
    for a in range(ctx.n):
        for b in range(a + 1, ctx.n):
            t = log[exp[a] ^ exp[b]]
            if t <= b:
                continue
            if code.quad_sum_in_subspace(qterm[a] ^ qterm[b] ^ qterm[t]):
                out.append((1 << a) | (1 << b) | (1 << t))
    return out


def weight4_codewords(code):
    """All weight-4 codewords of an unextended chain code, by scanning triples."""
    if code.extended:
        raise ValueError("use extended_weight4_codewords for extended codes")
    ctx = code.ctx
    exp, log, qterm = ctx.gm.exp, ctx.gm.log, ctx.qterm
    out = []
    for a, b, c in combinations(range(ctx.n), 3):
        rest = exp[a] ^ exp[b] ^ exp[c]
        if rest == 0:
            continue
        d = log[rest]
        if d <= c:
            continue
        if code.quad_sum_in_subspace(qterm[a] ^ qterm[b] ^ qterm[c] ^ qterm[d]):
            out.append((1 << a) | (1 << b) | (1 << c) | (1 << d))
    return out


def extended_weight4_codewords(code):
    """Weight-4 words of an extended code: padded weight-3 words plus shifted
    weight-4 words of the punctured code."""
    if not code.extended:
        raise ValueError("code is not extended")
    out = [(w << 1) | 1 for w in weight3_codewords(code.base)]
    out += [w << 1 for w in weight4_codewords(code.base)]
    return out


def verify_design(words, length, block_weight, strength):
    """Do the supports cover every strength-subset equally often?"""
    if not words:
        return DesignReport(length, block_weight, strength, 0, None, False)
    counts = {}
    for word in words:
        support = list(bit_support(word))
        if len(support) != block_weight:
            raise ValueError("word weight differs from the block weight")
        for key in combinations(support, strength):
            counts[key] = counts.get(key, 0) + 1
    lam = len(words) * comb(block_weight, strength) // comb(length, strength)
    for key in combinations(range(length), strength):
        if counts.get(key, 0) != lam:
            return DesignReport(length, block_weight, strength, len(words), lam, False, key)
    return DesignReport(length, block_weight, strength, len(words), lam, True)


def parse_graph6(data):
    """Adjacency lists from a graph6 byte string."""
    data = data.strip()
    if data[0] == 126:
        v = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        v = data[0] - 63
        body = data[1:]
    six = np.frombuffer(body, dtype=np.uint8) - 63
    bits = np.unpackbits(six).reshape(-1, 8)[:, 2:].ravel().astype(bool)
    # graph6 lists the upper triangle column by column: (0,1), (0,2), (1,2), ...
    i, j = np.triu_indices(v, 1)
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    edge = bits[:len(i)]
    adj = np.zeros((v, v), dtype=bool)
    adj[i[edge], j[edge]] = True
    adj |= adj.T
    return [tuple(np.flatnonzero(row).tolist()) for row in adj]


def permute_word(perm, v):
    """The word with a bit at perm[p] for each bit p of v."""
    out = 0
    for p in bit_support(v):
        out |= 1 << perm[p]
    return out


def stabilizes_by_rows(perm, code):
    """Does perm map every generator row into the code?"""
    return all(code.contains(permute_word(perm, row)) for row in code.generator_rows)


def coset_leaders(code):
    """Leader of every coset, indexed by syndrome: the word whose support is
    the lexicographically least among the coset's minimum-weight words,
    found by scanning supports by increasing weight."""
    units = code.unit_syndromes
    leader = [None] * (1 << code.syndrome_width)
    left = len(leader)
    for w in range(code.length + 1):
        for support in combinations(range(code.length), w):
            s = 0
            for p in support:
                s ^= units[p]
            if leader[s] is None:
                leader[s] = sum(1 << p for p in support)
                left -= 1
                if not left:
                    return leader
    raise RuntimeError("syndrome space is not connected by unit syndromes")


def act_on_coset(perm, syndrome, code, leaders):
    """Syndrome of the permuted leader of a coset."""
    s = 0
    for p in bit_support(leaders[syndrome]):
        s ^= code.unit_syndromes[perm[p]]
    return s


def leader_orbits(gens, code, leaders):
    """Orbit partition by BFS from each unvisited syndrome in increasing
    order, moving cosets by their leaders."""
    size = len(leaders)
    class_of = [-1] * size
    weights, sizes = [], []
    for s0 in range(size):
        if class_of[s0] >= 0:
            continue
        oid = len(weights)
        class_of[s0] = oid
        members = 1
        queue = deque([s0])
        while queue:
            s = queue.popleft()
            for perm in gens:
                t = act_on_coset(perm, s, code, leaders)
                if class_of[t] < 0:
                    class_of[t] = oid
                    members += 1
                    queue.append(t)
        weights.append(leaders[s0].bit_count())
        sizes.append(members)
    return OrbitPartition(tuple(class_of), len(weights), tuple(weights), tuple(sizes))


def loop_completely_regular(code, table):
    """Complete regularity by visiting each coset and each of its n
    neighbours; the witness is the first coset, in syndrome order, whose
    counts differ from the first coset of its weight."""
    weight = table.weights.tolist()
    rho = max(weight)
    b_vals, c_vals, first = [None] * (rho + 1), [None] * (rho + 1), [None] * (rho + 1)
    for s, w in enumerate(weight):
        down = up = 0
        for us in code.unit_syndromes:
            nw = weight[s ^ us]
            if nw == w - 1:
                down += 1
            elif nw == w + 1:
                up += 1
        if first[w] is None:
            first[w], b_vals[w], c_vals[w] = s, up, down
        elif (c_vals[w], b_vals[w]) != (down, up):
            witness = {
                "weight": w,
                "coset_a": first[w],
                "coset_b": s,
                "counts_a": (c_vals[w], b_vals[w]),
                "counts_b": (down, up),
            }
            return RegularityReport(False, None, witness)
    return RegularityReport(True, IntersectionArray(b=tuple(b_vals[:rho]), c=tuple(c_vals[1:])))


def fold_by_edges(adjacency, fibres):
    """Quotient on the fibre partition, blocks adjacent when any edge
    crosses between them; complete when every block meets all the others."""
    blocks = len(fibres)
    block_of = np.full(len(adjacency), -1, dtype=np.int64)
    for i, block in enumerate(fibres):
        block_of[list(block)] = i
    if (block_of < 0).any():
        raise ValueError("fibres do not cover the vertex set")
    pairs = np.unique(block_of[:, None] * blocks + block_of[adjacency])
    src, dst = np.divmod(pairs, blocks)
    degree = np.bincount(src[src != dst], minlength=blocks)
    return FoldedGraph(blocks, len(fibres[0]), bool((degree == blocks - 1).all()))


def cover_by_edges(fine_code, coarse_code):
    """Covering-map check on the two adjacencies: each fine coset goes to
    the coarse syndrome of its leader, and each vertex's sorted neighbour
    images must be its image's neighbours; the witness is the first vertex
    where they are not."""
    fine, coarse = build_coset_graph(fine_code), build_coset_graph(coarse_code)
    proj = np.array([coarse_code.syndrome(v) for v in coset_leaders(fine_code)])
    expected = fine.vertex_count // coarse.vertex_count
    counts = np.bincount(proj, minlength=coarse.vertex_count)
    images = np.sort(proj[fine.adjacency], axis=1)
    ok_rows = (images == coarse.adjacency[proj]).all(axis=1)
    witness = None if ok_rows.all() else int(np.flatnonzero(~ok_rows)[0])
    return CoverReport(expected, bool((counts == expected).all()), witness is None,
                       tuple(proj.tolist()), witness)
