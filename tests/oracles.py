"""Brute-force references that the tests compare the library against.

Nothing in the package calls these: designs are checked there from a
histogram of pair syndromes, and graph6 is only ever written.
"""

from itertools import combinations
from math import comb

import numpy as np

from crcodes.gf2 import bit_support
from crcodes.regularity import DesignReport


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
