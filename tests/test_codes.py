import itertools
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from crcodes.field import build_field_context
from crcodes.codes import (
    build_chain,
    check_membership,
    dual_spectrum,
    dual_weights,
    extend_code,
    save_code,
    _support_xor,
)
from crcodes import codes
from crcodes.gf2 import gf2_rank, gf2_span
from oracles import (
    build_base_code,
    build_hamming_parity,
    build_power_parity,
    codewords,
    contains,
    count_codes_at_level,
    count_full_chains,
    dual_enumerate,
    dual_weight_table,
    generator_rows,
    load_code,
    matrix_rank,
    matrix_syndrome,
    membership_by_vectors,
    n_rows,
    parity,
    syndrome,
    verify_cyclic,
)


def test_hamming_parity_columns():
    ctx = build_field_context(4)
    hm = build_hamming_parity(ctx)
    assert n_rows(hm) == 4 and hm.n_cols == 15
    assert matrix_rank(hm) == 4
    for p in range(15):
        col = sum(((hm.rows[t] >> p) & 1) << t for t in range(4))
        assert col == ctx.gm.exp[p]


def test_power_parity_columns():
    for m in (4, 6):
        ctx = build_field_context(m)
        em = build_power_parity(ctx)
        assert matrix_rank(em) == ctx.u
        cols = []
        for p in range(ctx.n):
            col = sum(((em.rows[t] >> p) & 1) << t for t in range(ctx.m))
            cols.append(col)
            # every column lies in the subfield: zero alpha-component
            assert ctx.quad_decompose(col).g2 == 0
        for i in range(ctx.n):
            for j in range(i):
                same = (ctx.r * (i - j)) % ctx.n == 0
                assert (cols[i] == cols[j]) == same


def test_stacked_parity_rank():
    for m in (4, 6):
        ctx = build_field_context(m)
        rows = build_hamming_parity(ctx).rows + build_power_parity(ctx).rows
        assert gf2_rank(rows, ctx.n) == ctx.m + ctx.u


def test_chain_dimensions():
    for m, dims in ((4, [11, 10, 9]), (6, [57, 56, 55, 54])):
        ctx = build_field_context(m)
        chain = build_chain(ctx)
        assert [c.dimension for c in chain] == dims
        assert [len(generator_rows(c)) for c in chain] == dims
        assert [c.level for c in chain] == list(range(ctx.u + 1))
        base = build_base_code(ctx)
        assert base.parity_rows == chain[ctx.u].parity_rows


def test_base_membership_equivalence_m4():
    # parity-product membership against field-sum plus quad_sum membership
    ctx = build_field_context(4)
    code = build_base_code(ctx)
    stacked = build_hamming_parity(ctx).rows + build_power_parity(ctx).rows
    for v in range(1 << 15):
        by_parity = all((row & v).bit_count() & 1 == 0 for row in stacked)
        h = 0
        t = v
        while t:
            low = t & -t
            h ^= ctx.gm.exp[low.bit_length() - 1]
            t ^= low
        by_sums = h == 0 and ctx.quad_sum(v) == 0
        assert by_parity == by_sums
        assert contains(code, v) == by_sums


def test_support_xor_matches_bit_loops(chain4, chain6):
    # byte-table sums of packed vectors against the per-bit loops
    rng = random.Random(5)
    for code in (chain4[0], chain4[-1], chain6[1], chain6[-1]):
        n, ctx = code.length, code.ctx
        vectors = [0, 1, 1 << (n - 1), (1 << n) - 1]
        vectors += [rng.getrandbits(n) for _ in range(300)]
        raw = b"".join(v.to_bytes(-(-n // 8), "little") for v in vectors)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(vectors), -1)
        assert _support_xor(code.unit_syndromes, packed).tolist() == [
            syndrome(code, v) for v in vectors
        ]
        assert _support_xor(ctx.qterm, packed).tolist() == [
            ctx.quad_sum(v) for v in vectors
        ]
        assert _support_xor(ctx.gm.exp, packed).tolist() == [
            syndrome(code, v) & ((1 << ctx.m) - 1) for v in vectors
        ]


def corrupt_stub(code, corrupt):
    """The code with one bit of position 5's unit syndrome ("unit"), field
    label ("exp") or weight term ("qterm") flipped; unchanged for None."""
    ctx = code.ctx
    tables = {"unit": list(code.unit_syndromes), "exp": list(ctx.gm.exp[:ctx.n]),
              "qterm": list(ctx.qterm)}
    if corrupt is not None:
        where, bit = corrupt
        tables[where][5] ^= 1 << bit
    fake_ctx = SimpleNamespace(m=ctx.m, n=ctx.n, gm=SimpleNamespace(exp=tables["exp"]),
                               qterm=tables["qterm"])
    return SimpleNamespace(ctx=fake_ctx, length=code.length, extended=False,
                           syndrome_width=code.syndrome_width,
                           unit_syndromes=tuple(tables["unit"]))


# at m = 4, level 2, position p packs U[p] in bits 0-5, exp[p] in bits 6-9
# and qterm[p] in bits 10-11, so the top cases sit at the field edges
CORRUPT = {
    "true": None,
    "field-sum-bit": ("unit", 0),
    "weight-sum-bit": ("unit", 4),
    "top-syndrome-bit": ("unit", 5),
    "top-field-sum-bit": ("exp", 3),
    "top-weight-sum-bit": ("qterm", 1),
}


@pytest.mark.parametrize("corrupt", ["field-sum-bit", "weight-sum-bit"])
def test_check_membership_detects_corrupt_unit_syndrome(chain4, corrupt):
    top = chain4[-1]
    assert check_membership(top, range(1 << 15))
    assert not check_membership(corrupt_stub(top, CORRUPT[corrupt]), range(1 << 15))


@pytest.mark.parametrize("block", [codes._BLOCK, 1000])
@pytest.mark.parametrize("corrupt", list(CORRUPT))
def test_blocked_membership_matches_one_shot_oracle(chain4, monkeypatch, block, corrupt):
    # exhaustive m = 4, in the module's blocks and in small ones that end
    # in a partial block; a corrupt unit syndrome, field label or weight
    # term must fail in any block
    monkeypatch.setattr(codes, "_BLOCK", block)
    fake = corrupt_stub(chain4[-1], CORRUPT[corrupt])
    want = membership_by_vectors(fake, range(1 << 15))
    assert want is (corrupt == "true")
    assert check_membership(fake, range(1 << 15)) is want
    # one disagreeing vector, in the first or in the last, partial block
    disagree = [v for v in range(1 << 15) if not membership_by_vectors(fake, [v])]
    if disagree:
        agreeing = [0] * (2 * block + 3)
        assert check_membership(fake, agreeing)
        assert not check_membership(fake, disagree[:1] + agreeing)
        assert not check_membership(fake, agreeing + disagree[:1])


@pytest.mark.parametrize("where", ["first", "last"])
def test_blocked_membership_rejects_long_vector_in_any_block(chain4, where):
    top = chain4[-1]
    count = 2 * codes._BLOCK + 5
    vectors = [3] * count
    vectors[0 if where == "first" else count - 1] = 1 << 15
    with pytest.raises(ValueError, match="length 15"):
        check_membership(top, vectors)


def test_check_membership_rejects_bad_input(chain4):
    top = chain4[-1]
    with pytest.raises(ValueError, match="length 15"):
        check_membership(top, [3, 1 << 15])
    with pytest.raises(ValueError, match="unextended"):
        check_membership(extend_code(top), [0])


def test_chain_nesting():
    for m in (4, 6):
        ctx = build_field_context(m)
        chain = build_chain(ctx)
        for i in range(ctx.u):
            finer = chain[i + 1]
            coarser = chain[i]
            for g in generator_rows(finer):
                assert contains(coarser, g)
        # adjoined representative j lies in level i exactly when j <= u - i
        targets = chain[0].syndrome_targets
        reps = chain[0].adjoined_reps
        for i in range(ctx.u + 1):
            for j, rep in enumerate(reps):
                assert contains(chain[i], rep) == (j < ctx.u - i)
        for j, (t, rep) in enumerate(zip(targets, reps)):
            assert rep.bit_count() == 3
            assert ctx.quad_sum(rep) == t


def test_chain_custom_targets():
    ctx = build_field_context(6)
    chain = build_chain(ctx, [3, 5])
    assert chain[0].syndrome_targets == (3, 5, 1)
    assert [c.dimension for c in chain] == [57, 56, 55, 54]
    with pytest.raises(ValueError):
        build_chain(ctx, [3, 5, 6])  # dependent: 3 ^ 5 = 6
    with pytest.raises(ValueError):
        build_chain(ctx, [0])
    with pytest.raises(ValueError):
        build_chain(ctx, [8])
    with pytest.raises(ValueError):
        build_chain(ctx, [1, 2, 4, 7])


def test_min_weights_m4():
    ctx = build_field_context(4)
    chain = build_chain(ctx)
    for code, expect_w3 in zip(chain, [35, 15, 5]):
        counts = {}
        for c in codewords(code):
            w = c.bit_count()
            counts[w] = counts.get(w, 0) + 1
        assert min(w for w in counts if w > 0) == 3
        assert counts[3] == expect_w3


def test_extension_properties():
    ctx = build_field_context(4)
    code = build_chain(ctx)[2]
    ext = extend_code(code)
    assert (ext.length, ext.dimension) == (16, 9)
    weights = sorted({c.bit_count() for c in codewords(ext) if c})
    assert weights[0] == 4
    assert all(w % 2 == 0 for w in weights)
    with pytest.raises(ValueError):
        extend_code(ext)
    # parity coordinate is index 0: puncturing recovers the original code
    rng = random.Random(7)
    for _ in range(500):
        v = rng.getrandbits(15)
        par = v.bit_count() & 1
        assert contains(code, v) == contains(ext, (v << 1) | par)
        if contains(code, v) and par == 0:
            assert not contains(ext, (v << 1) | 1)


def test_extended_unit_syndromes():
    ctx = build_field_context(4)
    ext = extend_code(build_base_code(ctx))
    assert ext.unit_syndromes[0] == 1 << (ctx.m + ctx.u)
    for p in range(ctx.n):
        assert ext.unit_syndromes[p + 1] == ext.base.unit_syndromes[p] | (
            1 << (ctx.m + ctx.u)
        )


def test_dual_spectrum_three_weights():
    for m in (4, 6):
        ctx = build_field_context(m)
        chain = build_chain(ctx)
        half = 1 << (m - 1)
        step = 1 << (ctx.u - 1)
        for i in range(1, ctx.u + 1):
            sp = dual_spectrum(chain[i])
            assert sp.weights == (half - step, half, half + step)
            assert sp.s == 3
            w1, w2, w3 = sp.weights
            assert w1 + w3 == ctx.n + 1
            assert 2 * w2 == ctx.n + 1
        sp0 = dual_spectrum(chain[0])
        assert sp0.weights == (half,)
        assert sp0.s == 1


def test_extended_dual_spectrum():
    for m in (4, 6):
        ctx = build_field_context(m)
        chain = build_chain(ctx)
        half = 1 << (m - 1)
        step = 1 << (ctx.u - 1)
        for i in range(1, ctx.u + 1):
            sp = dual_spectrum(extend_code(chain[i]))
            assert sp.weights == (half - step, half, half + step, 1 << m)
            assert sp.s == 4
        sp0 = dual_spectrum(extend_code(chain[0]))
        assert sp0.weights == (half, 1 << m)
        assert sp0.s == 2


@pytest.mark.parametrize("m", [4, 6, 8])
def test_dual_weights_match_gray_code_enumeration(m):
    for code in build_chain(build_field_context(m)):
        for c in (code, extend_code(code)):
            assert dual_weights(c).tolist() == dual_weight_table(c)
            nonzero = Counter(w.bit_count() for w in dual_enumerate(c) if w)
            assert dual_spectrum(c).counts == dict(nonzero)


def test_dual_words_annihilate_code():
    ctx = build_field_context(4)
    code = build_base_code(ctx)
    words = dual_enumerate(code)
    assert len(words) == len(set(words)) == 1 << code.syndrome_width
    for d in words:
        for g in generator_rows(code):
            assert (d & g).bit_count() & 1 == 0


def test_cyclicity_reports():
    ctx = build_field_context(6)
    chain = build_chain(ctx)
    rep_u = verify_cyclic(chain[3])
    rep_0 = verify_cyclic(chain[0])
    assert rep_u.cyclic and rep_u.claimed
    assert rep_0.cyclic and rep_0.claimed
    for i in (1, 2):
        rep = verify_cyclic(chain[i])
        assert not rep.claimed
    with pytest.raises(ValueError):
        verify_cyclic(extend_code(chain[3]))


def _all_subspaces(u, k):
    vecs = list(range(1, 1 << u))
    seen = set()
    for combo in itertools.combinations(vecs, k):
        if gf2_rank(list(combo), u) != k:
            continue
        span = frozenset(gf2_span(list(combo)))
        seen.add(span)
    return seen


def test_count_codes_at_level_against_enumeration():
    for u in (2, 3):
        for i in range(u + 1):
            k = u - i
            if k == 0:
                assert count_codes_at_level(u, i) == 1
            else:
                assert count_codes_at_level(u, i) == len(_all_subspaces(u, k))
    assert count_codes_at_level(2, 1) == 3
    assert count_codes_at_level(3, 1) == 7
    assert count_codes_at_level(3, 2) == 7
    with pytest.raises(ValueError):
        count_codes_at_level(3, 4)


def test_count_full_chains_against_enumeration():
    for u in (2, 3):
        subs = {k: _all_subspaces(u, k) for k in range(1, u + 1)}
        flags = 0
        for flag in itertools.product(*(subs[k] for k in range(1, u + 1))):
            if all(flag[k] < flag[k + 1] for k in range(u - 1)):
                flags += 1
        assert count_full_chains(u) == flags
    assert count_full_chains(2) == 3
    assert count_full_chains(3) == 21


def test_membership_examples_level1():
    # weight-3 Hamming words belong to level i exactly when their quad_sum
    # falls in the adjoined span
    ctx = build_field_context(4)
    chain = build_chain(ctx)
    found = {0: False, 1: False, 2: False}
    for a in range(ctx.n):
        for b in range(a + 1, ctx.n):
            t = ctx.gm.log[ctx.gm.exp[a] ^ ctx.gm.exp[b]]
            if t <= b:
                continue
            v = (1 << a) | (1 << b) | (1 << t)
            s = ctx.quad_sum(v)
            assert contains(chain[0], v)
            assert contains(chain[1], v) == (s in (0, 1))
            assert contains(chain[2], v) == (s == 0)
            if s in found:
                found[s] = True
    assert all(found.values())


def test_parity_syndrome_matches_unit_xor():
    ctx = build_field_context(6)
    for code in (build_base_code(ctx), extend_code(build_base_code(ctx))):
        rng = random.Random(code.length)
        for _ in range(200):
            v = rng.getrandbits(code.length)
            assert matrix_syndrome(parity(code), v) == syndrome(code, v)


def test_save_load_roundtrip(tmp_path):
    ctx = build_field_context(4)
    code = build_chain(ctx)[1]
    desc, pchk = save_code(code, str(tmp_path / "level1"))
    loaded = load_code(desc)
    assert loaded.parity_rows == code.parity_rows
    assert loaded.level == 1 and not loaded.extended
    ext = extend_code(code)
    desc_e, _ = save_code(ext, str(tmp_path / "level1x"))
    loaded_e = load_code(desc_e)
    assert loaded_e.extended and loaded_e.parity_rows == ext.parity_rows
    # a tampered parity file must be rejected
    lines = (tmp_path / "level1.pchk").read_text().splitlines()
    lines[0] = lines[0][::-1]
    (tmp_path / "level1.pchk").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_code(desc)
