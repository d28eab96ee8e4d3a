"""Matrix and translation actions, orbit counts, transitivity verdicts."""

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from crcodes import cli
from crcodes.codes import build_chain, extend_code
from crcodes.field import build_field_context
from crcodes.regularity import CosetTable
from crcodes.transitivity import (
    ActingGroup,
    Mat2,
    OrbitPartition,
    certify_transitivity,
    compose_permutations,
    conjecture_predicate,
    coset_action,
    default_acting_group,
    frobenius_permutation,
    gl2_generators,
    lift_permutation,
    mat_det,
    matrix_to_permutation,
    orbits_on_cosets,
    semilinear_extension,
    sl2_generators,
    translation_permutation,
)
from oracles import (
    codewords,
    contains,
    coset_distributions,
    coset_map_by_all_pairs,
    coset_leaders,
    generator_rows,
    leader_orbits,
    mat_identity,
    mat_mul,
    matrix_closure,
    orbit_weight2_structure,
    permutation_by_positions,
    permute_word,
    stabilizes_by_rows,
    translation_by_labels,
)


def test_group_orders(ctx4, ctx6):
    assert len(matrix_closure(sl2_generators(ctx4), ctx4.gu)) == 60
    assert len(matrix_closure(gl2_generators(ctx4), ctx4.gu)) == 180
    assert len(matrix_closure(sl2_generators(ctx6), ctx6.gu)) == 504
    assert len(matrix_closure(gl2_generators(ctx6), ctx6.gu)) == 3528


def test_identity_permutation(ctx4):
    assert matrix_to_permutation(ctx4, mat_identity()) == tuple(range(15))


def test_singular_matrix_rejected(ctx4):
    with pytest.raises(ValueError):
        matrix_to_permutation(ctx4, Mat2(1, 1, 1, 1))


def test_composition_exhaustive_gl2_4(ctx4):
    group = matrix_closure(gl2_generators(ctx4), ctx4.gu)
    assert len(group) == 180
    perms = {g: matrix_to_permutation(ctx4, g) for g in group}
    rng = random.Random(7)
    for _ in range(400):
        x, y = rng.choice(group), rng.choice(group)
        xy = mat_mul(x, y, ctx4.gu)
        assert perms[xy] == compose_permutations(perms[x], perms[y])


def test_weight_function_scales_by_det(ctx4, chain4):
    # on vectors with zero field sum the position weight function picks up
    # exactly the determinant as a factor

    hamming = chain4[0]
    words = [w for w in codewords(hamming) if 0 < w.bit_count() <= 4]
    group = matrix_closure(gl2_generators(ctx4), ctx4.gu)
    for g in group:
        det = mat_det(g, ctx4.gu)
        perm = matrix_to_permutation(ctx4, g)
        for v in words:
            assert ctx4.quad_sum(permute_word(perm, v)) == ctx4.gu.mul(
                det, ctx4.quad_sum(v)
            )


def test_det_scaling_sampled_m6(ctx6, chain6):

    rng = random.Random(11)
    hamming = chain6[0]
    rows = generator_rows(hamming)
    group = matrix_closure(gl2_generators(ctx6), ctx6.gu)
    for _ in range(60):
        g = rng.choice(group)
        det = mat_det(g, ctx6.gu)
        perm = matrix_to_permutation(ctx6, g)
        v = 0
        for row in rows:
            if rng.random() < 0.5:
                v ^= row
        assert ctx6.quad_sum(permute_word(perm, v)) == ctx6.gu.mul(
            det, ctx6.quad_sum(v)
        )


def test_generators_stabilize_codes(ctx4, chain4, ctx6, chain6):
    for ctx, chain in ((ctx4, chain4), (ctx6, chain6)):
        top = chain[ctx.u]
        for g in gl2_generators(ctx):
            perm = matrix_to_permutation(ctx, g)
            for row in generator_rows(top):
                assert contains(top, permute_word(perm, row))
        level1 = chain[1]
        for g in sl2_generators(ctx):
            perm = matrix_to_permutation(ctx, g)
            for row in generator_rows(level1):
                assert contains(level1, permute_word(perm, row))


def test_frobenius_preserves_hamming(ctx4, chain4):
    hamming = chain4[0]
    perm = frobenius_permutation(ctx4, 1)
    assert sorted(perm) == list(range(15))
    for row in generator_rows(hamming):
        assert contains(hamming, permute_word(perm, row))


def test_coset_action_basics(ctx4, chain4, tables4):
    code, table = chain4[2], tables4[2]
    dists = list(coset_distributions(code))
    assert coset_action(tuple(range(code.length)), code).tolist() == list(range(len(table)))
    for g in gl2_generators(ctx4):
        image = coset_action(matrix_to_permutation(ctx4, g), code)
        assert image[0] == 0
        assert sorted(image.tolist()) == list(range(len(table)))
        for s in (3, 21, 49):
            assert dists[int(image[s])] == dists[s]


def _generator_sets(ctx, code):
    """The default group's permutations and, where label squarings fit the
    code, those of the group widened by them."""
    group = default_acting_group(code)
    sets = {"default": group.permutations(ctx)}
    semi = semilinear_extension(code)
    if semi:
        sets["+frob"] = ActingGroup(group.name, group.matrices, semi).permutations(ctx)
    return sets


@pytest.mark.parametrize("m", [4, 6])
def test_linear_orbits_match_leader_oracle(m, request):
    ctx = request.getfixturevalue(f"ctx{m}")
    chain = request.getfixturevalue(f"chain{m}")
    translations = [translation_permutation(ctx, 1 << k) for k in range(m)]
    seen = set()
    for i, code in enumerate(chain):
        star = extend_code(code)
        leaders, star_leaders = coset_leaders(code), coset_leaders(star)
        for name, perms in _generator_sets(ctx, code).items():
            lifted = [lift_permutation(p) for p in perms] + translations
            for c, lead, gens, label in ((code, leaders, perms, name),
                                         (star, star_leaders, lifted, name + "+translations")):
                got = orbits_on_cosets(gens, c, CosetTable(c))
                want = leader_orbits(gens, c, lead)
                assert np.array_equal(got.class_of, want.class_of), (i, label)
                assert (got.orbit_count, got.orbit_weights, got.orbit_sizes) == (
                    want.orbit_count, want.orbit_weights, want.orbit_sizes), (i, label)
                seen.add(label)
    # the comparison above covers every field of the partition
    assert [f.name for f in dataclasses.fields(OrbitPartition)] == [
        "class_of", "orbit_count", "orbit_weights", "orbit_sizes"]
    assert seen == {"default", "+frob", "default+translations", "+frob+translations"}


@pytest.mark.parametrize("m", [4, 6])
def test_stabilizer_test_matches_row_membership(m, request):
    ctx = request.getfixturevalue(f"ctx{m}")
    verdicts = []
    for code in request.getfixturevalue(f"chain{m}"):
        star = extend_code(code)
        for d in range(1, ctx.q):
            perm = matrix_to_permutation(ctx, Mat2(d, 0, 0, 1))
            for c, p in ((code, perm), (star, lift_permutation(perm))):
                linear = coset_action(p, c) is not None
                assert linear == stabilizes_by_rows(p, c), (code.level, d, c.extended)
                verdicts.append(linear)
    assert any(verdicts) and not all(verdicts)


def test_orbit_counts_m4(chain4, tables4):
    reports = [certify_transitivity(code, table) for code, table in zip(chain4, tables4)]
    assert [r.orbit_count for r in reports] == [2, 4, 4]
    assert all(r.certified for r in reports)
    assert reports[0].group == "GL2"
    assert reports[1].group == "SL2"
    assert reports[2].group == "GL2"
    assert reports[2].orbit_weights == (0, 1, 2, 3)
    assert reports[2].orbit_sizes == (1, 15, 45, 3)


def test_orbit_counts_m6(chain6, tables6):
    reports = [certify_transitivity(code, table) for code, table in zip(chain6, tables6)]
    assert [r.orbit_count for r in reports] == [2, 4, 4, 4]
    assert all(r.certified for r in reports)
    assert reports[2].group == "SL2+frob"
    assert reports[3].orbit_sizes == (1, 63, 441, 7)


def test_sl2_alone_leaves_middle_level_uncertified(ctx6, chain6, tables6):
    # the determinant-1 group preserves the weight function exactly, so both
    # the weight-2 and weight-3 classes split three ways under it; the
    # squaring permutations merge them
    code, table = chain6[2], tables6[2]
    perms = [matrix_to_permutation(ctx6, g) for g in sl2_generators(ctx6)]
    part = orbits_on_cosets(perms, code, table)
    assert part.orbit_count == 8
    assert part.orbit_sizes == (1, 63, 63, 63, 63, 1, 1, 1)
    semi = semilinear_extension(code)
    assert semi
    group = default_acting_group(code)
    wider = group.permutations(ctx6)

    full = ActingGroup(group.name, group.matrices, semi).permutations(ctx6)
    part2 = orbits_on_cosets(full, code, table)
    assert part2.orbit_count == 4


def test_non_stabilizing_generator_rejected(ctx4, chain4, tables4):
    code, table = chain4[1], tables4[1]
    bad = matrix_to_permutation(ctx4, Mat2(2, 0, 0, 1))
    with pytest.raises(ValueError, match="stabilize"):
        orbits_on_cosets([bad], code, table)
    with pytest.raises(ValueError, match="length"):
        orbits_on_cosets([tuple(range(5))], code, table)


def test_weight2_census(chain4, tables4, chain6, tables6):
    rep4 = orbit_weight2_structure(chain4[2], tables4[2])
    assert rep4.coset_count == rep4.expected_count == 45
    assert rep4.all_have_nonzero_det_pair and rep4.sum_identity_holds
    rep6 = orbit_weight2_structure(chain6[3], tables6[3])
    assert rep6.coset_count == rep6.expected_count == 441
    assert rep6.all_have_nonzero_det_pair and rep6.sum_identity_holds
    with pytest.raises(ValueError):
        orbit_weight2_structure(chain4[1])


def test_translations(ctx4, chain4):
    ident = translation_permutation(ctx4, 0)
    assert ident == tuple(range(16))
    for w in range(16):
        pw = translation_permutation(ctx4, w)
        assert sorted(pw) == list(range(16))
        assert compose_permutations(pw, pw) == ident
        for w2 in range(16):
            assert compose_permutations(
                pw, translation_permutation(ctx4, w2)
            ) == translation_permutation(ctx4, w ^ w2)
    star = extend_code(chain4[2])
    rng = random.Random(3)
    words = list(codewords(star))
    for _ in range(20):
        w = rng.randrange(16)
        v = rng.choice(words)
        assert contains(star, permute_word(translation_permutation(ctx4, w), v))


@pytest.mark.parametrize("m", [4, 6])
def test_translation_matches_label_oracle(m, request):
    ctx = request.getfixturevalue(f"ctx{m}")
    for w in range(1 << m):
        assert translation_permutation(ctx, w) == translation_by_labels(ctx, w), w


def test_translation_label_range(ctx4):
    with pytest.raises(ValueError):
        translation_permutation(ctx4, 16)


def test_lift_permutation(ctx4):
    perm = matrix_to_permutation(ctx4, Mat2(2, 0, 0, 1))
    lifted = lift_permutation(perm)
    assert lifted[0] == 0
    assert sorted(lifted) == list(range(16))


def _extended_reports(chain):
    reports = []
    for code in chain:
        star = extend_code(code)
        reports.append(certify_transitivity(star, CosetTable(star)))
    return reports


def test_extended_orbit_counts_m4(chain4):
    results = [(r.orbit_count, r.group) for r in _extended_reports(chain4)]
    assert results[0] == (3, "GL2+translations")
    assert results[1] == (5, "SL2+translations")
    assert results[2] == (5, "GL2+translations")


def test_extended_orbit_counts_m6(chain6):
    reports = _extended_reports(chain6)
    assert [r.orbit_count for r in reports] == [3, 5, 5, 5]
    assert all(r.certified for r in reports)
    assert reports[2].group == "SL2+frob+translations"


def test_conjecture_predicate():
    assert conjecture_predicate(2, 0) and conjecture_predicate(2, 1)
    assert conjecture_predicate(2, 2)
    assert conjecture_predicate(3, 2)  # 4 <= 4
    assert conjecture_predicate(4, 2)  # 4 <= 5
    assert not conjecture_predicate(4, 3)  # 8 > 5


def _conjecture_rows(capsys, m):
    assert cli.main(["conjecture", "--m", str(m), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_conjecture_report_m4_m6(capsys):
    for m in (4, 6):
        rows = _conjecture_rows(capsys, m)
        assert all(r["verdict"] == "certified" for r in rows)
        assert all(r["predicted"] for r in rows)
        assert [r["level"] for r in rows] == list(range(m // 2 + 1))


def test_conjecture_report_m8(capsys):
    by_level = {r["level"]: r for r in _conjecture_rows(capsys, 8)}
    assert all(by_level[i]["verdict"] == "certified" for i in (0, 1, 4))
    assert by_level[2]["predicted"] and not by_level[3]["predicted"]
    # levels 2 and 3 of the canonical chain stay undetermined here; their
    # orbit counts are recorded, not asserted against any claim
    for i in (2, 3):
        assert by_level[i]["orbit_count"] >= by_level[i]["rho"] + 1


def test_m8_level2_certifies_with_subfield_aligned_targets():
    # {0,1,6,7} is the order-4 subfield of GF(16) under x^4+x+1, so its
    # multiplicative stabilizer is nontrivial and merges the deep cosets
    ctx = build_field_context(8)
    chain = build_chain(ctx, syndrome_targets=[1, 6, 2, 8])
    rep = certify_transitivity(chain[2], CosetTable(chain[2]))
    assert rep.certified
    assert rep.group == "SL2+diag"
    assert rep.orbit_count == 4


def _all_generators(ctx, code):
    """(code, generators) for the code and its extension, as
    certify_transitivity builds them, with the group widened by label
    squarings wherever they fit."""
    translations = [translation_permutation(ctx, 1 << k) for k in range(ctx.m)]
    for perms in _generator_sets(ctx, code).values():
        yield code, perms
        yield extend_code(code), [lift_permutation(p) for p in perms] + translations


@pytest.mark.parametrize("m", [4, 6, 8])
def test_coset_action_matches_all_pairs_rref(m):
    ctx = build_field_context(m)
    for code in build_chain(ctx):
        for c, gens in _all_generators(ctx, code):
            for perm in gens:
                want = coset_map_by_all_pairs(perm, c)
                assert want is not None
                assert coset_action(perm, c).tolist() == want.tolist(), (code.level, c.extended)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_transposition_does_not_stabilize(m):
    for code in build_chain(build_field_context(m)):
        for c in (code, extend_code(code)):
            swap = list(range(c.length))
            swap[1], swap[2] = 2, 1
            assert coset_action(swap, c) is None
            assert coset_map_by_all_pairs(swap, c) is None
            with pytest.raises(ValueError, match="generator 1 does not stabilize"):
                orbits_on_cosets([tuple(range(c.length)), swap], c, CosetTable(c))


def test_matrix_permutations_match_position_loop_m4(ctx4):
    q = ctx4.q
    singular = 0
    for a, a1, b, b1 in itertools.product(range(q), repeat=4):
        phi = Mat2(a, a1, b, b1)
        if mat_det(phi, ctx4.gu) == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                matrix_to_permutation(ctx4, phi)
        else:
            assert matrix_to_permutation(ctx4, phi) == permutation_by_positions(ctx4, phi)
    assert singular == q ** 4 - 180


@pytest.mark.parametrize("m", [6, 8])
def test_matrix_permutations_match_position_loop(m):
    ctx = build_field_context(m)
    mats = set(sl2_generators(ctx)) | set(gl2_generators(ctx))
    for code in build_chain(ctx):
        group = default_acting_group(code)
        mats |= set(group.matrices)
        mats |= {Mat2(d, 0, 0, 1) for _, d in semilinear_extension(code)}
    for phi in mats:
        assert matrix_to_permutation(ctx, phi) == permutation_by_positions(ctx, phi)
    with pytest.raises(ValueError, match="singular"):
        matrix_to_permutation(ctx, Mat2(1, 1, 1, 1))


# (m, level, extended) -> (group, orbit count, orbit weights, orbit sizes)
CT_REPORTS = {
    (4, 0, False): ("GL2", 2, (0, 1), (1, 15)),
    (4, 0, True): ("GL2+translations", 3, (0, 2, 1), (1, 15, 16)),
    (4, 1, False): ("SL2", 4, (0, 1, 2, 3), (1, 15, 15, 1)),
    (4, 1, True): ("SL2+translations", 5, (0, 2, 4, 1, 3), (1, 30, 1, 16, 16)),
    (4, 2, False): ("GL2", 4, (0, 1, 2, 3), (1, 15, 45, 3)),
    (4, 2, True): ("GL2+translations", 5, (0, 2, 4, 1, 3), (1, 60, 3, 16, 48)),
    (6, 0, False): ("GL2", 2, (0, 1), (1, 63)),
    (6, 0, True): ("GL2+translations", 3, (0, 2, 1), (1, 63, 64)),
    (6, 1, False): ("SL2", 4, (0, 1, 2, 3), (1, 63, 63, 1)),
    (6, 1, True): ("SL2+translations", 5, (0, 2, 4, 1, 3), (1, 126, 1, 64, 64)),
    (6, 2, False): ("SL2+frob", 4, (0, 1, 2, 3), (1, 63, 189, 3)),
    (6, 2, True): ("SL2+frob+translations", 5, (0, 2, 4, 1, 3), (1, 252, 3, 64, 192)),
    (6, 3, False): ("GL2", 4, (0, 1, 2, 3), (1, 63, 441, 7)),
    (6, 3, True): ("GL2+translations", 5, (0, 2, 4, 1, 3), (1, 504, 7, 64, 448)),
    (8, 0, False): ("GL2", 2, (0, 1), (1, 255)),
    (8, 0, True): ("GL2+translations", 3, (0, 2, 1), (1, 255, 256)),
    (8, 1, False): ("SL2", 4, (0, 1, 2, 3), (1, 255, 255, 1)),
    (8, 1, True): ("SL2+translations", 5, (0, 2, 4, 1, 3), (1, 510, 1, 256, 256)),
    (8, 2, False): ("SL2+frob", 6, (0, 1, 2, 2, 3, 3), (1, 255, 510, 255, 1, 2)),
    (8, 2, True): ("SL2+frob+translations", 7, (0, 2, 4, 4, 1, 3, 3),
                   (1, 1020, 1, 2, 256, 512, 256)),
    (8, 3, False): ("SL2+frob", 8, (0, 1, 2, 2, 2, 3, 3, 3), (1, 255, 1020, 510, 255, 2, 1, 4)),
    (8, 3, True): ("SL2+frob+translations", 9, (0, 2, 4, 4, 4, 1, 3, 3, 3),
                   (1, 2040, 2, 1, 4, 256, 1024, 512, 256)),
    (8, 4, False): ("GL2", 4, (0, 1, 2, 3), (1, 255, 3825, 15)),
    (8, 4, True): ("GL2+translations", 5, (0, 2, 4, 1, 3), (1, 4080, 15, 256, 3840)),
}


@pytest.mark.parametrize("m", [4, 6, 8])
def test_certify_transitivity_reports(m):
    for code in build_chain(build_field_context(m)):
        for c in (code, extend_code(code)):
            rep = certify_transitivity(c, CosetTable(c))
            got = (rep.group, rep.orbit_count, rep.orbit_weights, rep.orbit_sizes)
            assert got == CT_REPORTS[m, code.level, c.extended]
