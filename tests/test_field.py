import random

import pytest

from crcodes.field import (
    PRIM_POLYS,
    FieldContext,
    GF2Ext,
    QuadPair,
    build_field_context,
)
from oracles import embed_subfield, pair_det, project_subfield, quad_det


def slow_mul(a, b, poly, e):
    # textbook carry-less multiply with reduction, independent of the tables
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if (a >> e) & 1:
            a ^= poly
    return acc


def test_context_params_m4():
    ctx = build_field_context(4)
    assert (ctx.m, ctx.u, ctx.q, ctx.r, ctx.rbar, ctx.n) == (4, 2, 4, 5, 3, 15)
    assert ctx.beta == ctx.gm.power(ctx.alpha, 5)
    assert ctx.gm.power(ctx.beta, 3) == 1
    assert ctx.beta != 1


def test_params_all_m():
    for m in (4, 6, 8, 10, 12):
        ctx = build_field_context(m)
        assert ctx.r * ctx.rbar == ctx.n
        assert ctx.gm.element_order(ctx.beta) == ctx.rbar
        assert len(ctx.quad_pairs) == ctx.n
        assert len(set(ctx.quad_pairs)) == ctx.n


def test_rejects_bad_m():
    for m in (3, 5, 7, 2, 14, 0):
        with pytest.raises(ValueError):
            build_field_context(m)


def test_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        GF2Ext(2, 0b101)  # (x+1)^2, reducible
    with pytest.raises(ValueError):
        GF2Ext(4, 0b11111)  # irreducible but not primitive
    with pytest.raises(ValueError):
        GF2Ext(4, 0b111)  # degree mismatch
    with pytest.raises(ValueError):
        GF2Ext(4, 0b10010)  # divisible by x


def test_alternate_primitive_polynomial():
    ctx = build_field_context(4, poly_m=0b11001)
    assert ctx.n == 15
    assert ctx.gm.element_order(ctx.beta) == 3
    assert len(set(ctx.quad_pairs)) == 15


def test_gm_mul_matches_slow_mul():
    for m in (4, 6):
        ctx = build_field_context(m)
        rng = random.Random(m)
        for _ in range(300):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            assert ctx.gm.mul(a, b) == slow_mul(a, b, ctx.gm.poly, m)


def test_embedding_is_field_homomorphism():
    for m in (4, 6):
        ctx = build_field_context(m)
        for a in range(ctx.q):
            for b in range(ctx.q):
                lhs = embed_subfield(ctx, ctx.gu.mul(a, b))
                rhs = slow_mul(
                    embed_subfield(ctx, a), embed_subfield(ctx, b), ctx.gm.poly, m
                )
                assert lhs == rhs
                sum_ab = embed_subfield(ctx, a) ^ embed_subfield(ctx, b)
                assert embed_subfield(ctx, a ^ b) == sum_ab


def test_quad_roundtrip_m6():
    ctx = build_field_context(6)
    for value in range(1 << 6):
        pair = ctx.quad_decompose(value)
        assert ctx.quad_compose(pair) == value
    for g1 in range(ctx.q):
        for g2 in range(ctx.q):
            pair = QuadPair(g1, g2)
            assert ctx.quad_decompose(ctx.quad_compose(pair)) == pair


def test_quad_compose_against_slow_mul():
    ctx = build_field_context(6)
    for value in range(1, 1 << 6):
        g1, g2 = ctx.quad_decompose(value)
        rebuilt = embed_subfield(ctx, g1) ^ slow_mul(
            embed_subfield(ctx, g2), ctx.alpha, ctx.gm.poly, 6
        )
        assert rebuilt == value


def test_frobenius_respects_decomposition():
    # gamma^(2^u) = g1 + g2 * alpha^(2^u) because subfield components are fixed
    for m in (4, 6):
        ctx = build_field_context(m)
        alpha_q = ctx.gm.power(ctx.alpha, ctx.q)
        for value in range(1, 1 << m):
            g1, g2 = ctx.quad_decompose(value)
            lhs = ctx.gm.power(value, ctx.q)
            rhs = embed_subfield(ctx, g1) ^ ctx.gm.mul(embed_subfield(ctx, g2), alpha_q)
            assert lhs == rhs


def test_quad_det_oracle_m4():
    ctx = build_field_context(4)
    for a in range(1 << 4):
        pa = ctx.quad_decompose(a)
        for b in range(1 << 4):
            pb = ctx.quad_decompose(b)
            expect = slow_mul(pa.g1, pb.g2, ctx.gu.poly, 2) ^ slow_mul(
                pb.g1, pa.g2, ctx.gu.poly, 2
            )
            assert quad_det(ctx, a, b) == expect


def test_quad_det_alternating_and_bilinear_m4():
    ctx = build_field_context(4)
    for a in range(1 << 4):
        assert quad_det(ctx, a, a) == 0
        for b in range(1 << 4):
            assert quad_det(ctx, a, b) == quad_det(ctx, b, a)
            for c in range(1 << 4):
                assert quad_det(ctx, a ^ b, c) == quad_det(ctx, a, c) ^ quad_det(ctx, b, c)


def test_det_value_counts():
    # for fixed nonzero gamma: det 0 exactly on {0} and the subfield multiples
    # of gamma, and each nonzero target is hit by exactly 2^u values
    for m in (4, 6):
        ctx = build_field_context(m)
        rng = random.Random(m)
        gammas = [rng.randrange(1, 1 << m) for _ in range(4)]
        for gamma in gammas:
            multiples = {
                ctx.gm.mul(embed_subfield(ctx, s), gamma) for s in range(1, ctx.q)
            }
            counts = {}
            for other in range(1 << m):
                d = quad_det(ctx, gamma, other)
                counts[d] = counts.get(d, 0) + 1
                if d == 0:
                    assert other == 0 or other in multiples
            assert counts[0] == ctx.q
            for d, c in counts.items():
                if d != 0:
                    assert c == ctx.q
            assert len(counts) == ctx.q


def test_quad_sum_basics():
    ctx = build_field_context(6)
    assert ctx.quad_sum(0) == 0
    for p in range(ctx.n):
        assert ctx.quad_sum(1 << p) == ctx.qterm[p]
    with pytest.raises(ValueError):
        ctx.quad_sum(1 << ctx.n)
    with pytest.raises(ValueError):
        ctx.quad_sum(-1)


def test_quad_sum_weight3_equals_det():
    # support {p, q, pos(gamma_p + gamma_q)} sums to det of the pair labels
    for m in (4, 6):
        ctx = build_field_context(m)
        for p in range(ctx.n):
            for q in range(p + 1, ctx.n):
                third = ctx.gm.exp[p] ^ ctx.gm.exp[q]
                t = ctx.gm.log[third]
                if t in (p, q):
                    continue
                v = (1 << p) | (1 << q) | (1 << t)
                expect = pair_det(ctx, ctx.quad_pairs[p], ctx.quad_pairs[q])
                assert ctx.quad_sum(v) == expect


def test_quad_sum_random_oracle():
    ctx = build_field_context(6)
    rng = random.Random(63)
    for _ in range(200):
        v = rng.getrandbits(ctx.n)
        acc = 0
        for p in range(ctx.n):
            if (v >> p) & 1:
                g1, g2 = ctx.quad_pairs[p]
                acc ^= slow_mul(g1, g2, ctx.gu.poly, ctx.u)
        assert ctx.quad_sum(v) == acc


def test_position_of_pair_roundtrip():
    ctx = build_field_context(4)
    for i, pair in enumerate(ctx.quad_pairs):
        assert ctx.position_of_pair(pair) == i
    with pytest.raises(ValueError):
        ctx.position_of_pair(QuadPair(0, 0))


def test_project_subfield_rejects_outsiders():
    ctx = build_field_context(4)
    inside = {embed_subfield(ctx, a) for a in range(ctx.q)}
    for value in range(1 << 4):
        if value in inside:
            assert embed_subfield(ctx, project_subfield(ctx, value)) == value
        else:
            with pytest.raises(ValueError):
                project_subfield(ctx, value)
