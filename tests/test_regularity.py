"""Coset tables, intersection arrays, distributions and design checks."""

import random
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest

from crcodes.codes import build_chain, dual_spectrum, dual_weights, extend_code
from crcodes.field import build_field_context
from crcodes.gf2 import gf2_rank
from crcodes import regularity
from crcodes.regularity import (
    CosetTable,
    check_design,
    cria_array,
    design_lambda,
    distributions_uniform,
    extended_cria_array,
    extended_array_variant,
    verify_completely_regular,
    verify_extended_array,
    verify_extension_condition,
    verify_mu_identity,
    verify_uniformly_packed,
)
from oracles import (
    bfs_weights,
    codewords,
    contains,
    coset_distributions,
    coset_leaders,
    design_by_pair_histogram,
    distributions_uniform_by_syndrome,
    dual_enumerate,
    dual_weight_table,
    extended_weight4_codewords,
    loop_completely_regular,
    loop_neighbour_counts,
    verify_design,
    weight3_codewords,
    krawtchouk_matrix,
    syndrome,
    weight4_codewords,
)


def brute_coset_distribution(code, rep):
    dist = [0] * (code.length + 1)
    for cw in codewords(code):
        dist[(cw ^ rep).bit_count()] += 1
    return tuple(dist)


def test_krawtchouk_sanity():
    n = 15
    k = krawtchouk_matrix(n)
    from math import comb

    for w in range(n + 1):
        assert k[0][w] == comb(n, w)
    for j in range(n + 1):
        total = sum(k[j][w] for w in range(n + 1))
        assert total == (1 << n if j == 0 else 0)


def test_table_shapes_and_mu_m4(chain4, tables4):
    n = 15
    for i, table in enumerate(tables4):
        assert len(table) == 1 << (4 + i)
        if i == 0:
            assert table.mu == (1, n)
        else:
            assert table.mu == (1, n, ((1 << i) - 1) * n, (1 << i) - 1)


def test_mu_m6(tables6):
    n = 63
    for i, table in enumerate(tables6):
        if i == 0:
            assert table.mu == (1, n)
        else:
            assert table.mu == (1, n, ((1 << i) - 1) * n, (1 << i) - 1)


def test_leaders_are_canonical_m4(chain4, tables4):
    # exhaustive: the table's weight is the least weight in each coset, and
    # the oracle's leader has the lexicographically least support among the
    # coset's minimum-weight members
    code = chain4[1]
    best = {}
    for v in range(1 << code.length):
        s = syndrome(code, v)
        key = (v.bit_count(), tuple(i for i in range(code.length) if v >> i & 1))
        if s not in best or key < best[s]:
            best[s] = key
    assert len(best) == len(tables4[1])
    assert tables4[1].weights.tolist() == [best[s][0] for s in range(len(best))]
    leaders = coset_leaders(code)
    for s, leader in enumerate(leaders):
        assert leader == sum(1 << p for p in best[s][1])
        assert syndrome(code, leader) == s


def test_distributions_match_brute_force_m4(chain4):
    for code in chain4[1:]:
        for dist, leader in zip(coset_distributions(code), coset_leaders(code)):
            assert dist == brute_coset_distribution(code, leader)


def test_extended_distributions_match_brute_force_m4(chain4):
    for code in chain4[1:]:
        star = extend_code(code)
        for dist, leader in zip(coset_distributions(star), coset_leaders(star)):
            assert dist == brute_coset_distribution(star, leader)


def test_coset_weight_distribution_single_calls(chain4):
    code = chain4[2]
    dists = list(coset_distributions(code))
    for v in (0b1, 0b1010010, (1 << 14) | 0b11):
        assert dists[syndrome(code, v)] == brute_coset_distribution(code, v)


@pytest.mark.parametrize("m", [4, 6])
def test_distributions_uniform_matches_per_syndrome_oracle(m, request):
    for code in request.getfixturevalue(f"chain{m}"):
        for c in (code, extend_code(code)):
            table = CosetTable(c)
            assert distributions_uniform(c, table) is True
            assert distributions_uniform_by_syndrome(c, table) is True


def test_completely_regular_and_arrays_m4(chain4, tables4):
    for i, (code, table) in enumerate(zip(chain4, tables4)):
        rep = verify_completely_regular(table)
        assert rep.completely_regular
        assert rep.array == cria_array(4, i)
        assert distributions_uniform(code, table) is True


def test_completely_regular_and_arrays_m6(chain6, tables6):
    for i, (code, table) in enumerate(zip(chain6, tables6)):
        rep = verify_completely_regular(table)
        assert rep.completely_regular
        assert rep.array == cria_array(6, i)
        assert distributions_uniform(code, table) is True


@pytest.mark.parametrize("m", [4, 6])
def test_counts_match_loop_oracle(m, request):
    for code in request.getfixturevalue(f"chain{m}"):
        for c in (code, extend_code(code)):
            table = CosetTable(c)
            assert verify_completely_regular(table) == loop_completely_regular(c, table)


def test_array_formulas():
    assert str(cria_array(4, 2)) == "(15,12,1;1,4,15)"
    assert cria_array(6, 1) == regularity.IntersectionArray(
        b=(63, 32, 1), c=(1, 32, 63)
    )
    arr = cria_array(6, 3)
    assert arr.valency == 63 and arr.rho == 3
    assert arr.a(1) == 63 - 56 - 1
    assert extended_cria_array(6, 2) == regularity.IntersectionArray(
        b=(64, 63, 48, 1), c=(1, 16, 63, 64)
    )
    assert extended_array_variant(4, 1) == regularity.IntersectionArray(
        b=(17, 16, 8, 1), c=(1, 8, 16, 17)
    )


def test_extended_arrays_m4(chain4):
    for i, code in enumerate(chain4):
        if i == 0:
            continue
        star = extend_code(code)
        table = CosetTable(star)
        rep = verify_extended_array(star, table)
        assert rep.regularity.completely_regular
        assert rep.matches_extended_form
        assert not rep.matches_variant_form
        assert table.mu[1] == 16 and table.rho == 4


def test_extended_arrays_m6(chain6):
    for i, code in enumerate(chain6):
        if i == 0:
            continue
        star = extend_code(code)
        table = CosetTable(star)
        rep = verify_extended_array(star, table)
        assert rep.regularity.completely_regular
        assert rep.matches_extended_form
        assert not rep.matches_variant_form


def test_extended_hamming_array_m4(chain4):
    star = extend_code(chain4[0])
    table = CosetTable(star)
    rep = verify_completely_regular(table)
    assert rep.completely_regular
    assert rep.array == extended_cria_array(4, 0)
    assert table.rho == 2


def test_mu_identity(tables4, tables6):
    for tables, m in ((tables4, 4), (tables6, 6)):
        for i, table in enumerate(tables):
            rep = verify_completely_regular(table)
            mu_rep = verify_mu_identity(table, rep.array)
            assert mu_rep.ok, (m, i, mu_rep.products)


def test_mu_identity_detects_bad_array(tables4):
    bad = regularity.IntersectionArray(b=(15, 9, 1), c=(1, 8, 15))
    assert not verify_mu_identity(tables4[1], bad).ok


def test_uniformly_packed(chain4, tables4):
    for i, (code, table) in enumerate(zip(chain4, tables4)):
        rep = verify_uniformly_packed(code, table)
        assert rep.uniformly_packed
        assert rep.rho == rep.s == (1 if i == 0 else 3)
    star = extend_code(chain4[2])
    table = CosetTable(star)
    rep = verify_uniformly_packed(star, table)
    assert rep.uniformly_packed and rep.rho == 4


def test_weight3_counts(chain4, chain6):
    for m, chain in ((4, chain4), (6, chain6)):
        n = (1 << m) - 1
        for i, code in enumerate(chain):
            words = weight3_codewords(code)
            lam = design_lambda(m, i)
            assert len(words) == n * lam // 3
            for w in words:
                assert w.bit_count() == 3 and contains(code, w)


def test_weight3_words_exhaustive_m4(chain4):
    for code in chain4:
        expected = sorted(
            cw for cw in codewords(code) if cw.bit_count() == 3
        )
        assert sorted(weight3_codewords(code)) == expected


def test_weight4_words_exhaustive_m4(chain4):
    for code in chain4:
        expected = sorted(
            cw for cw in codewords(code) if cw.bit_count() == 4
        )
        assert sorted(weight4_codewords(code)) == expected


def test_weight3_designs(chain4, chain6):
    # the pair-syndrome histogram against the word scan and word-list count
    for m, chain in ((4, chain4), (6, chain6)):
        n = (1 << m) - 1
        for i, code in enumerate(chain):
            rep = verify_design(weight3_codewords(code), n, 3, 1)
            assert rep.ok
            assert rep.lam == design_lambda(m, i)
            fast = check_design(code)
            assert (fast.blocks, fast.lam, fast.ok) == (rep.blocks, rep.lam, rep.ok)
            assert (fast.points, fast.block_weight, fast.strength) == (n, 3, 1)


def test_extended_weight4_designs(chain4, chain6):
    for m, chain in ((4, chain4), (6, chain6)):
        n = (1 << m) - 1
        for i, code in enumerate(chain):
            star = extend_code(code)
            words = extended_weight4_codewords(star)
            rep = verify_design(words, n + 1, 4, 2)
            assert rep.ok
            assert rep.lam == design_lambda(m, i)
            for w in words:
                assert w.bit_count() == 4 and contains(star, w)
            fast = check_design(star)
            assert (fast.blocks, fast.lam, fast.ok) == (rep.blocks, rep.lam, rep.ok)
            assert (fast.points, fast.block_weight, fast.strength) == (n + 1, 4, 2)


def test_design_negative_control(chain4):
    words = weight3_codewords(chain4[0])
    rep = verify_design(words[:-1], 15, 3, 1)
    assert not rep.ok
    assert rep.counterexample is not None
    assert verify_design([], 15, 3, 1).ok is False


def brute_design(stub, block_weight, strength):
    """Word-list design count over every zero-sum block_weight-subset."""
    units = stub.unit_syndromes
    words = []
    for support in combinations(range(stub.length), block_weight):
        acc = 0
        for p in support:
            acc ^= units[p]
        if acc == 0:
            words.append(sum(1 << p for p in support))
    return verify_design(words, stub.length, block_weight, strength)


@pytest.mark.parametrize(
    "units, extended, witness",
    [
        # F_2^3 minus {6, 7}: blocks {1,2,3} and {1,4,5} both pass point 0
        ((1, 2, 3, 4, 5), False, (0,)),
        # the same points behind a parity bit: {0, 1} lies in two blocks
        ((8, 9, 10, 11, 12, 13), True, (0, 1)),
    ],
    ids=["plain", "extended"],
)
def test_design_histogram_negative_control(units, extended, witness):
    stub = SimpleNamespace(unit_syndromes=units, length=len(units), extended=extended,
                           syndrome_width=max(units).bit_length())
    rep = check_design(stub)
    assert not rep.ok
    assert rep.counterexample == witness
    ref = brute_design(stub, 4 if extended else 3, 2 if extended else 1)
    assert (rep.blocks, rep.lam, rep.ok, rep.counterexample) == (
        ref.blocks, ref.lam, ref.ok, ref.counterexample)


@pytest.mark.parametrize("units", [(1, 2, 3, 3), (0, 1, 2, 3)], ids=["repeated", "zero"])
def test_design_needs_distinct_nonzero_units(units):
    stub = SimpleNamespace(unit_syndromes=units, length=len(units), extended=False,
                           syndrome_width=2)
    with pytest.raises(ValueError, match="distinct nonzero"):
        check_design(stub)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_design_matches_pair_histogram(m):
    # blocks, lambda, verdict and witness of every chain code and extension
    for code in build_chain(build_field_context(m)):
        for c in (code, extend_code(code)):
            rep = check_design(c)
            assert rep == design_by_pair_histogram(c), (m, code.level, c.extended)
            assert rep.ok


def test_design_matches_pair_histogram_on_random_units():
    rng = random.Random(22)
    verdicts = Counter()
    for trial in range(200):
        width = rng.randint(4, 7)
        nonzero = range(1, 1 << width)
        units = rng.sample(nonzero, len(nonzero) if trial % 10 < 2
                           else rng.randint(3, len(nonzero)))
        stub = SimpleNamespace(unit_syndromes=tuple(units), length=len(units),
                               extended=trial % 2 == 1, syndrome_width=width)
        rep = check_design(stub)
        assert rep == design_by_pair_histogram(stub), (trial, units)
        verdicts[rep.ok, stub.extended] += 1
    # most random unit sets are no design, so their witnesses are compared
    assert verdicts[False, False] >= 50 and verdicts[False, True] >= 50
    assert verdicts[True, False] >= 5 and verdicts[True, True] >= 5


def test_designs_m10_closed_form():
    m, n = 10, 1023
    for i, code in enumerate(build_chain(build_field_context(m))):
        lam = design_lambda(m, i)
        rep, rep4 = check_design(code), check_design(extend_code(code))
        assert (rep.ok, rep.lam, rep.blocks) == (True, lam, n * lam // 3)
        assert (rep4.ok, rep4.lam, rep4.blocks) == (True, lam, lam * (n + 1) * n // 12)


def test_extension_condition(chain4, chain6):
    for chain in (chain4, chain6):
        for i, code in enumerate(chain):
            got = verify_extension_condition(code)
            assert got is (None if i == 0 else True)
    star = extend_code(chain4[1])
    assert verify_extension_condition(star) is None


def stub_code(units, width):
    """A code given only by its unit syndromes and the parity rows they make."""
    rows = tuple(sum(1 << p for p, us in enumerate(units) if us >> j & 1) for j in range(width))
    return SimpleNamespace(length=len(units), syndrome_width=width, extended=False,
                           unit_syndromes=tuple(units), parity_rows=rows)


def non_cr_shim(ctx4):
    """Hamming rows plus a weight-2 dual row: a code that is not completely
    regular."""
    return stub_code([ctx4.gm.exp[p] | ((1 << 4) if p in (0, 1) else 0) for p in range(15)], 5)


def test_regularity_witness_on_non_cr_code(ctx4):
    # the verifier must say the code is not completely regular and name two cosets
    shim = non_cr_shim(ctx4)
    table = CosetTable(shim)
    rep = verify_completely_regular(table)
    assert not rep.completely_regular
    assert rep.array is None
    assert rep.witness == {
        "weight": 1, "coset_a": 3, "coset_b": 4, "counts_a": (1, 0), "counts_b": (1, 4),
    }
    assert loop_completely_regular(shim, table) == rep


def extended_stub(base):
    """The parity extension of a stub code: the base unit syndromes behind
    a parity bit, with the parity position's unit first."""
    par = 1 << base.syndrome_width
    star = stub_code([par] + [s | par for s in base.unit_syndromes], base.syndrome_width + 1)
    star.extended = True
    return star


def test_regularity_witness_on_non_cr_extended_code(ctx4):
    # the extended twin: counts derived from the shim's, against the loop
    # over a searched table
    shim = non_cr_shim(ctx4)
    star = extended_stub(shim)
    table = CosetTable(star, CosetTable(shim))
    assert table.weights.tolist() == bfs_weights(star.unit_syndromes, 6)
    rep = verify_completely_regular(table)
    assert not rep.completely_regular
    assert rep.array is None
    assert rep.witness == {
        "weight": 2, "coset_a": 1, "coset_b": 3, "counts_a": (12, 4), "counts_b": (16, 0),
    }
    assert loop_completely_regular(star, table) == rep


def test_distributions_not_uniform_on_non_cr_code(ctx4):
    shim = non_cr_shim(ctx4)
    assert distributions_uniform(shim, CosetTable(shim)) is False


def test_coset_table_needs_connected_units():
    # the units span only the low 4 of 5 syndrome bits
    stub = SimpleNamespace(syndrome_width=5, unit_syndromes=(1, 2, 4, 8, 3), extended=False)
    with pytest.raises(RuntimeError, match="not connected"):
        CosetTable(stub)


def test_transform_agrees_with_oracles_on_random_stubs():
    # negative controls: random distinct nonzero unit syndromes that span
    # F_2^r; of these codes only the zero-dimensional ones (n = r), whose
    # cosets are single words, have uniform distributions
    rng = random.Random(16)
    stubs = trivial = 0
    while stubs < 200:
        r = rng.randint(5, 7)
        units = rng.sample(range(1, 1 << r), rng.randint(r, 20))
        if gf2_rank(units, r) < r:
            continue
        stubs += 1
        stub = stub_code(units, r)
        table = CosetTable(stub)
        got = distributions_uniform(stub, table)
        assert got is distributions_uniform_by_syndrome(stub, table)
        assert got is (len(units) == r)
        trivial += got
        assert dual_weights(stub).tolist() == dual_weight_table(stub)
        nonzero = Counter(w.bit_count() for w in dual_enumerate(stub) if w)
        assert dual_spectrum(stub).counts == dict(nonzero)
    assert trivial == 10


@pytest.mark.parametrize("m", [4, 6, 8])
def test_tables_equal_bfs_oracle(m):
    # extended tables are doubled from the base table, never searched
    for code in build_chain(build_field_context(m)):
        table = CosetTable(code)
        assert table.weights.tolist() == bfs_weights(code.unit_syndromes, code.syndrome_width)
        star = extend_code(code)
        want = bfs_weights(star.unit_syndromes, star.syndrome_width)
        for star_table in (CosetTable(star), CosetTable(star, table)):
            assert star_table.weights.tolist() == want, code.level
            assert star_table.rho == max(want) == table.rho + 1
            assert star_table.mu == tuple(Counter(want)[w] for w in range(max(want) + 1))
            assert star_table.code is star


@pytest.mark.parametrize("position", [0, 3], ids=["parity-unit", "base-unit"])
def test_extended_table_checks_parity_premise(chain4, tables4, position):
    # a stub whose unit syndromes are not the base ones behind a parity bit
    code, table = chain4[1], tables4[1]
    width = code.syndrome_width + 1
    par = 1 << code.syndrome_width
    good = [par] + [s | par for s in code.unit_syndromes]
    bad = list(good)
    bad[position] ^= 1

    def stub(units):
        return SimpleNamespace(extended=True, length=len(units), unit_syndromes=tuple(units),
                               syndrome_width=width)

    assert CosetTable(stub(good), table).weights.tolist() == bfs_weights(good, width)
    with pytest.raises(ValueError, match="parity bit"):
        CosetTable(stub(bad), table)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_extended_counts_equal_kernel_and_loop(m):
    # counts derived from the base table's against the n-pass kernel and
    # the per-neighbour loop on the same weights
    for code in build_chain(build_field_context(m)):
        star = extend_code(code)
        table = CosetTable(star, CosetTable(code))
        down, up = regularity._neighbour_counts(table.weights, star.unit_syndromes)
        assert table.down.tolist() == down.tolist() and table.up.tolist() == up.tolist()
        assert [down.tolist(), up.tolist()] == list(
            loop_neighbour_counts(star, table.weights.tolist()))
        assert verify_completely_regular(table) == loop_completely_regular(star, table)


def test_extended_counts_on_random_stubs():
    # negative controls: random spanning unit syndromes behind a parity bit,
    # 275 of the 300 not completely regular; derived counts, reports and
    # witnesses against the kernel and the loop on a searched table
    rng = random.Random(19)
    stubs = irregular = 0
    while stubs < 300:
        r = rng.randint(4, 7)
        units = rng.sample(range(1, 1 << r), rng.randint(r, min(20, (1 << r) - 1)))
        if gf2_rank(units, r) < r:
            continue
        stubs += 1
        base = stub_code(units, r)
        star = extended_stub(base)
        table = CosetTable(star, CosetTable(base))
        assert table.weights.tolist() == bfs_weights(star.unit_syndromes, r + 1)
        down, up = regularity._neighbour_counts(table.weights, star.unit_syndromes)
        assert table.down.tolist() == down.tolist() and table.up.tolist() == up.tolist()
        rep = verify_completely_regular(table)
        assert rep == loop_completely_regular(star, table)
        irregular += not rep.completely_regular
    assert irregular == 275
