"""Brute-force references that the tests compare the library against.

Nothing in the package calls these: coset distributions and dual spectra
come there from one Walsh-Hadamard transform of the unit syndromes rather
than from every dual word, designs are checked from the transform of its
square rather than from a histogram of all pair syndromes, graph6 is only ever written, cosets are known by their weights
alone and moved by a linear map of syndromes rather than by their leaders,
neighbour counts are taken over the whole weight array at once, a coset
graph is folded as the Cayley graph of a quotient group rather than by the
edges that cross its fibres, and a covering map is a linear map of
syndromes, checked on the unit syndromes rather than edge by edge and
fixed by r basis pairs rather than by an RREF of all n.  An
extended code's coset table and counts are doubled from its base table
rather than searched and counted, a coset map is fixed by r basis pairs
rather than by an RREF of all n, translations are gathered from the label
array rather than found label by label, matrix permutations are gathered from
tables rather than looked up position by position, and membership vectors
are checked in numpy blocks, one table pass for all three sums.
Unit syndromes and parity rows are built position by position rather
than from the field's bit planes.  The field embedding, syndrome,
membership, generator, codeword and parity-matrix helpers are test-only
views of a field or code: the package
reads a code through its unit syndromes and parity rows alone.  The
stacked Hamming and power parity matrices check that the syndrome
construction cuts out the base code, and ``load_code`` reads back the
descriptors that ``crcodes build`` writes.  The counts,
cyclicity, matrix-group and weight-2 helpers back claims that the tests
check directly.
"""

import json
import os
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple, Tuple

import numpy as np

from crcodes.codes import LinearCode
from crcodes.field import QuadPair, build_field_context
from crcodes.gf2 import gf2_nullspace, gf2_rank, gf2_rref, gf2_span
from crcodes.graphs import CoverReport, FoldedGraph, build_coset_graph
from crcodes.regularity import CosetTable, DesignReport, IntersectionArray, RegularityReport
from crcodes.transitivity import Mat2, OrbitPartition


def bit_support(v):
    """Yield the set bit positions of v in increasing order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


class ParityCheckMatrix(NamedTuple):
    """Rows are ints over GF(2); bit p of a row is the entry in column p."""

    rows: Tuple[int, ...]
    n_cols: int


def _columns_to_rows(columns, height):
    """The matrix with the given m-bit columns, as rows."""
    rows = [0] * height
    for p, col in enumerate(columns):
        for t in bit_support(col):
            rows[t] |= 1 << p
    return ParityCheckMatrix(tuple(rows), len(columns))


def build_hamming_parity(ctx):
    """m x n matrix whose column p is the binary expansion of alpha^p."""
    return _columns_to_rows([ctx.gm.exp[p] for p in range(ctx.n)], ctx.m)


def build_power_parity(ctx):
    """m x n matrix whose column p is alpha^(p*r); its rank is only u."""
    return _columns_to_rows([ctx.gm.exp[(p * ctx.r) % ctx.n] for p in range(ctx.n)], ctx.m)


def build_base_code(ctx):
    """Level-u code: Hamming condition plus quad_sum(v) = 0, checked against
    the stacked Hamming and power parity rows, which cut out the same code."""
    code = LinearCode(ctx, ctx.u, (), ())
    stacked = build_hamming_parity(ctx).rows + build_power_parity(ctx).rows
    if gf2_rref(stacked, ctx.n)[0] != gf2_rref(code.parity_rows, ctx.n)[0]:
        raise RuntimeError("syndrome construction disagrees with stacked parity")
    return code


def unit_syndromes_by_positions(code):
    """Unit syndromes one position at a time: exp[p], with the parity of
    projection mask t on qterm[p] at bit m + t; an extended code puts the
    parity position first and a parity bit on top of every syndrome."""
    ctx = code.ctx
    units = []
    for p in range(ctx.n):
        e = 0
        for t, mask in enumerate(code.proj_masks):
            e |= ((mask & ctx.qterm[p]).bit_count() & 1) << t
        units.append(ctx.gm.exp[p] | (e << ctx.m))
    if not code.extended:
        return tuple(units)
    par = 1 << (ctx.m + code.level)
    return (par,) + tuple(s | par for s in units)


def parity_rows_by_positions(code):
    """Row t has bit p set when bit t of the unit syndrome at p is."""
    rows = [0] * code.syndrome_width
    for p, s in enumerate(unit_syndromes_by_positions(code)):
        for t in bit_support(s):
            rows[t] |= 1 << p
    return tuple(rows)


def load_code(desc_path):
    """Rebuild a code from its JSON descriptor, checking the stored rows."""
    with open(desc_path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    ctx = build_field_context(
        int(desc["m"]), int(desc["poly_m"], 0), int(desc["poly_u"], 0)
    )
    code = LinearCode(
        ctx,
        int(desc["level"]),
        [int(t) for t in desc["syndrome_targets"]],
        [int(v, 0) for v in desc["adjoined_reps"]],
        extended=bool(desc["extended"]),
    )
    if code.dimension != int(desc["dimension"]):
        raise ValueError("descriptor dimension disagrees with reconstruction")
    pchk_path = os.path.splitext(desc_path)[0] + ".pchk"
    if os.path.exists(pchk_path):
        with open(pchk_path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        rows = tuple(int(line[::-1], 2) for line in lines)
        if rows != code.parity_rows:
            raise ValueError("stored parity rows disagree with reconstruction")
    return code

def embed_subfield(ctx, a):
    """The GF(2^m) element of the GF(2^u) value a: the sum of zeta^k over
    the bits k of a, zeta being the subfield polynomial's root."""
    v = 0
    for k in bit_support(a):
        v ^= ctx.gm.power(ctx.zeta, k)
    return v


def project_subfield(ctx, value):
    """The GF(2^u) value of a GF(2^m) element lying in the subfield."""
    for a in range(ctx.q):
        if embed_subfield(ctx, a) == value:
            return a
    raise ValueError(f"0x{value:x} is not in the subfield")


def parity(code):
    """The code's parity-check matrix, one row per syndrome bit."""
    return ParityCheckMatrix(code.parity_rows, code.length)


def n_rows(matrix):
    return len(matrix.rows)


def matrix_rank(matrix):
    return gf2_rank(matrix.rows, matrix.n_cols)


def matrix_syndrome(matrix, v):
    """Bit t is the parity of row t on the support of v."""
    s = 0
    for t, row in enumerate(matrix.rows):
        s |= ((row & v).bit_count() & 1) << t
    return s


def syndrome(code, v):
    """XOR of the unit syndromes over the support of v."""
    if not 0 <= v < (1 << code.length):
        raise ValueError(f"vector does not have length {code.length}")
    s = 0
    for p in bit_support(v):
        s ^= code.unit_syndromes[p]
    return s


def contains(code, v):
    return syndrome(code, v) == 0


def generator_rows(code):
    """A basis of the code: the null space of its parity rows."""
    return gf2_nullspace(code.parity_rows, code.length)


def codewords(code):
    """All 2^dimension codewords; only sensible for small dimensions."""
    return gf2_span(generator_rows(code))


def quad_sum_in_subspace(code, value):
    """Whether a quad_sum value lies in the span of the targets."""
    # the projection functionals vanish exactly on the span
    return all((mask & value).bit_count() & 1 == 0 for mask in code.proj_masks)


def bfs_weights(units, width):
    """Weight of every syndrome by BFS from 0 over the unit syndromes."""
    weight = [-1] * (1 << width)
    weight[0] = 0
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for us in units:
            if weight[s ^ us] < 0:
                weight[s ^ us] = weight[s] + 1
                queue.append(s ^ us)
    return weight


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
            if quad_sum_in_subspace(code, qterm[a] ^ qterm[b] ^ qterm[t]):
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
        if quad_sum_in_subspace(code, qterm[a] ^ qterm[b] ^ qterm[c] ^ qterm[d]):
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


def design_by_pair_histogram(code):
    """check_design from one histogram of the n(n-1)/2 pair syndromes
    U[a] ^ U[b], a < b: cnt[U[p]] blocks pass through point p of a plain
    code, and cnt[U[a] ^ U[b]] - 1 through the pair {a, b} of an extended
    one; the witness is the first point or pair off lambda."""
    units = np.asarray(code.unit_syndromes, dtype=np.int64)
    n = code.length
    if units.min() <= 0 or len(np.unique(units)) != n:
        raise ValueError("design check needs distinct nonzero unit syndromes")
    a, b = np.triu_indices(n, 1)
    pair_syn = units[a] ^ units[b]
    cnt = np.bincount(pair_syn, minlength=int(units.max()) + 1)
    if code.extended:
        block_weight, strength = 4, 2
        blocks = int((cnt * (cnt - 1) // 2).sum()) // 3
        through = cnt[pair_syn] - 1
    else:
        block_weight, strength = 3, 1
        through = cnt[units]
        blocks = int(through.sum()) // 3
    if blocks == 0:
        return DesignReport(n, block_weight, strength, 0, None, False)
    lam = blocks * comb(block_weight, strength) // comb(n, strength)
    off = np.flatnonzero(through != lam)
    if len(off):
        k = int(off[0])
        witness = (int(a[k]), int(b[k])) if code.extended else (k,)
        return DesignReport(n, block_weight, strength, blocks, lam, False, witness)
    return DesignReport(n, block_weight, strength, blocks, lam, True)


def translation_by_labels(ctx, w):
    """translation_permutation one position at a time: position 0 is
    labelled 0 and position j >= 1 by the field element of log j - 1."""

    def pos_of(x):
        return 0 if x == 0 else ctx.gm.log[x] + 1

    def label_of(p):
        return 0 if p == 0 else ctx.gm.exp[p - 1]

    return tuple(pos_of(w ^ label_of(p)) for p in range(ctx.n + 1))


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
    return all(contains(code, permute_word(perm, row)) for row in generator_rows(code))


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
    return OrbitPartition(np.array(class_of), len(weights), tuple(weights), tuple(sizes))


def loop_neighbour_counts(code, weight):
    """Each coset's neighbours one weight below and one above, found by
    visiting its n neighbours one at a time."""
    down, up = [], []
    for s, w in enumerate(weight):
        below = above = 0
        for us in code.unit_syndromes:
            nw = weight[s ^ us]
            below += nw == w - 1
            above += nw == w + 1
        down.append(below)
        up.append(above)
    return down, up


def loop_completely_regular(code, table):
    """Complete regularity by visiting each coset and each of its n
    neighbours; the witness is the first coset, in syndrome order, whose
    counts differ from the first coset of its weight."""
    weight = table.weights.tolist()
    rho = max(weight)
    b_vals, c_vals, first = [None] * (rho + 1), [None] * (rho + 1), [None] * (rho + 1)
    for s, (w, down, up) in enumerate(zip(weight, *loop_neighbour_counts(code, weight))):
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


def permutation_by_positions(ctx, phi):
    """Coordinate permutation of a 2x2 subfield matrix, one position at a
    time: the column action on the position's pair label, looked up."""
    gu = ctx.gu
    perm = []
    for g1, g2 in ctx.quad_pairs:
        h1 = gu.mul(phi.a, g1) ^ gu.mul(phi.a1, g2)
        h2 = gu.mul(phi.b, g1) ^ gu.mul(phi.b1, g2)
        perm.append(ctx.position_of_pair(QuadPair(h1, h2)))
    return tuple(perm)


def gf2_linear_map(pairs, width, out_width):
    """Table over all 2^width inputs of the linear map L with L(x) = y for
    every pair (x, y); None when the xs do not span or no such L exists.

    The rows x | y << width reduce to e_k | L(e_k) << width exactly when L
    exists, and the table doubles by L(x ^ e_k) = L(x) ^ L(e_k).
    """
    rows, pivots = gf2_rref((x | y << width for x, y in pairs), width + out_width)
    if pivots != list(range(width)):
        return None
    table = np.zeros(1 << width, dtype=np.int64)
    for k, row in enumerate(rows):
        table[1 << k:2 << k] = table[:1 << k] ^ (row >> width)
    return table


def coset_map_by_all_pairs(perm, code):
    """The coset map of perm from one RREF of all n pairs (U[p], U[perm[p]])."""
    units = code.unit_syndromes
    return gf2_linear_map(((units[p], units[perm[p]]) for p in range(code.length)),
                          code.syndrome_width, code.syndrome_width)


def membership_by_vectors(code, vectors):
    """The membership verdict one vector at a time: zero syndrome exactly
    when the field sum and the weight sum are zero."""
    ctx = code.ctx
    verdict = True
    for v in vectors:
        syn = field_sum = weight_sum = 0
        for p in bit_support(v):
            syn ^= code.unit_syndromes[p]
            field_sum ^= ctx.gm.exp[p]
            weight_sum ^= ctx.qterm[p]
        verdict &= (syn == 0) == (field_sum == 0 and weight_sum == 0)
    return verdict


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
    proj = np.array([syndrome(coarse_code, v) for v in coset_leaders(fine_code)])
    expected = fine.vertex_count // coarse.vertex_count
    counts = np.bincount(proj, minlength=coarse.vertex_count)
    images = np.sort(proj[fine.adjacency], axis=1)
    ok_rows = (images == coarse.adjacency[proj]).all(axis=1)
    witness = None if ok_rows.all() else int(np.flatnonzero(~ok_rows)[0])
    return CoverReport(expected, bool((counts == expected).all()), witness is None,
                       proj, witness)


def cover_by_all_pairs(fine_code, coarse_code):
    """Covering-map check with the projection from one RREF of all n pairs
    (U_f[p], U_c[p]); locally bijective when the coarse unit syndromes are
    nonzero and distinct, else witness 0."""
    coarse_units = coarse_code.unit_syndromes
    proj = gf2_linear_map(zip(fine_code.unit_syndromes, coarse_units),
                          fine_code.syndrome_width, coarse_code.syndrome_width)
    if proj is None:
        raise ValueError("fine code is not contained in the coarse code")
    expected = len(proj) >> coarse_code.syndrome_width
    counts = np.bincount(proj, minlength=1 << coarse_code.syndrome_width)
    bijective = 0 not in coarse_units and len(set(coarse_units)) == len(coarse_units)
    return CoverReport(expected, bool((counts == expected).all()), bijective, proj,
                       None if bijective else 0)


def dual_enumerate(code):
    """All 2^(syndrome width) words of the dual, Gray-code order."""
    return list(gf2_span(list(code.parity_rows)))


def dual_weight_table(code):
    """Weight of every dual word, indexed by the mask of parity rows it sums;
    step t of the Gray-code walk visits mask t ^ (t >> 1)."""
    table = [0] * (1 << len(code.parity_rows))
    for t, word in enumerate(dual_enumerate(code)):
        table[t ^ (t >> 1)] = word.bit_count()
    return table


def krawtchouk_matrix(n):
    k = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        for w in range(n + 1):
            k[j][w] = sum(
                (-1) ** l * comb(j, l) * comb(n - j, w - l)
                for l in range(max(0, w - (n - j)), min(j, w) + 1)
            )
    return k


def coset_distributions(code):
    """Weight distribution of every coset in syndrome order, each from the
    dual-side transform over every dual word: O(4^r) in all."""
    dual_wt = dual_weight_table(code)
    kraw = krawtchouk_matrix(code.length)
    for s in range(len(dual_wt)):
        counts = {}
        for t, j in enumerate(dual_wt):
            counts[j] = counts.get(j, 0) + (-1 if (s & t).bit_count() & 1 else 1)
        dist = []
        for w in range(code.length + 1):
            q, rem = divmod(sum(nj * kraw[j][w] for j, nj in counts.items()), len(dual_wt))
            if rem:
                raise RuntimeError("dual transform gave a non-integer count")
            dist.append(q)
        yield tuple(dist)


def distributions_uniform_by_syndrome(code, table):
    """Do all cosets of one weight have the same weight distribution?"""
    per_weight = {}
    for w, dist in zip(table.weights.tolist(), coset_distributions(code)):
        if per_weight.setdefault(w, dist) != dist:
            return False
    return True


@dataclass(frozen=True)
class CyclicReport:
    cyclic: bool
    claimed: bool


def verify_cyclic(code):
    """Closure of the dual under the coordinate rotation p -> p+1 mod n.

    Only the level-u and level-0 codes are claimed cyclic; for other levels
    the result is reported without any claim attached.
    """
    if code.extended:
        raise ValueError("cyclicity is about the unextended coordinate ring")
    n = code.length
    mask = (1 << n) - 1
    words = set(dual_enumerate(code))
    cyclic = all(((w << 1) | (w >> (n - 1))) & mask in words for w in words)
    return CyclicReport(cyclic=cyclic, claimed=code.level in (0, code.ctx.u))


def count_codes_at_level(u, i):
    """Number of distinct level-i codes: the Gaussian binomial [u, u-i]_2."""
    if not 0 <= i <= u:
        raise ValueError(f"level {i} outside 0..{u}")
    k = u - i
    num = den = 1
    for t in range(k):
        num *= (1 << (u - t)) - 1
        den *= (1 << (k - t)) - 1
    assert num % den == 0
    return num // den


def count_full_chains(u):
    """Number of maximal nested chains: prod over 0 <= i < u of (2^(u-i) - 1)."""
    out = 1
    for i in range(u):
        out *= (1 << (u - i)) - 1
    return out


def pair_det(ctx, a, b):
    """The 2x2 determinant of two quadratic pairs over the subfield."""
    mul = ctx.gu.mul
    return mul(a.g1, b.g2) ^ mul(b.g1, a.g2)


def quad_det(ctx, a, b):
    """The determinant of the quadratic decompositions of a and b."""
    return pair_det(ctx, ctx.quad_decompose(a), ctx.quad_decompose(b))


def mat_identity():
    return Mat2(1, 0, 0, 1)


def mat_mul(x, y, gu):
    return Mat2(
        gu.mul(x.a, y.a) ^ gu.mul(x.a1, y.b),
        gu.mul(x.a, y.a1) ^ gu.mul(x.a1, y.b1),
        gu.mul(x.b, y.a) ^ gu.mul(x.b1, y.b),
        gu.mul(x.b, y.a1) ^ gu.mul(x.b1, y.b1),
    )


def matrix_closure(gens, gu):
    """Every element of the generated matrix group, in BFS order from the
    identity."""
    seen = {mat_identity(): None}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mat_mul(g, x, gu)
            if y not in seen:
                seen[y] = None
                queue.append(y)
    return list(seen)


@dataclass(frozen=True)
class Weight2Report:
    coset_count: int
    expected_count: int
    all_have_nonzero_det_pair: bool
    sum_identity_holds: bool


def orbit_weight2_structure(code, table=None):
    """Weight-2 coset census of the top-level code.

    Checks that every weight-2 coset contains a pair of positions whose
    quadratic determinant is nonzero, that the count is r*rbar^2, and that
    the weight function of a position sum splits as the pair sum plus the
    determinant.
    """
    if code.level != code.ctx.u or code.extended:
        raise ValueError("weight-2 census applies to the unextended top level")
    ctx = code.ctx
    if table is None:
        table = CosetTable(code)
    exp, log, qterm = ctx.gm.exp, ctx.gm.log, ctx.qterm
    identity_ok = True
    for a in range(ctx.n):
        for b in range(a + 1, ctx.n):
            h = exp[a] ^ exp[b]
            det = pair_det(ctx, ctx.quad_pairs[a], ctx.quad_pairs[b])
            if qterm[log[h]] != qterm[a] ^ qterm[b] ^ det:
                identity_ok = False
    weight2 = np.flatnonzero(table.weights == 2).tolist()
    all_det = True
    for s in weight2:
        found = False
        for a in range(ctx.n):
            sa = code.unit_syndromes[a]
            for b in range(a + 1, ctx.n):
                if sa ^ code.unit_syndromes[b] == s:
                    if pair_det(ctx, ctx.quad_pairs[a], ctx.quad_pairs[b]) != 0:
                        found = True
                        break
            if found:
                break
        if not found:
            all_det = False
    expected = ctx.r * ctx.rbar * ctx.rbar
    return Weight2Report(len(weight2), expected, all_det, identity_ok)
