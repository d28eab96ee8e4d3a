"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest outcomes.  Every criterion is exact; the stated
runtime ceilings are asserted as well.
"""

import itertools
import random
import time
from math import comb

from crcodes.codes import (
    check_membership,
    dual_spectrum,
    extend_code,
)
from crcodes.gf2 import gf2_span
from crcodes.graphs import (
    check_antipodal,
    fold,
    verify_cover,
    verify_antipodal_cover_array,
)
from crcodes.regularity import (
    CosetTable,
    check_design,
    cria_array,
    design_lambda,
    distributions_uniform,
    extended_cria_array,
    verify_completely_regular,
    verify_extended_array,
    verify_mu_identity,
)
from crcodes.transitivity import certify_transitivity
from oracles import (
    codewords,
    contains,
    coset_distributions,
    coset_leaders,
    count_codes_at_level,
    count_full_chains,
)


def record(number, label, problems, seconds, limit=None):
    ok = not problems
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} [{seconds:.2f}s]: {label}"
    print(line, flush=True)
    assert ok, line + "".join(f"\n  - {p}" for p in problems)


def field_sum(ctx, v):
    h = 0
    while v:
        h ^= ctx.gm.exp[(v & -v).bit_length() - 1]
        v &= v - 1
    return h


def test_criterion_01_membership_equivalence(ctx4, chain4, ctx6, chain6):
    t0 = time.perf_counter()
    problems = []
    top4 = chain4[-1]
    for v in range(1 << 15):
        want = field_sum(ctx4, v) == 0 and ctx4.quad_sum(v) == 0
        if contains(top4, v) != want:
            problems.append(f"m=4 vector {v:#x} disagrees")
            break
    if not check_membership(top4, range(1 << 15)):
        problems.append("m=4 byte-table check disagrees")
    top6 = chain6[-1]
    rng = random.Random(20240901)
    vectors = [rng.getrandbits(63) for _ in range(100_000)]
    for v in vectors:
        want = field_sum(ctx6, v) == 0 and ctx6.quad_sum(v) == 0
        if contains(top6, v) != want:
            problems.append(f"m=6 vector {v:#x} disagrees")
            break
    if not check_membership(top6, vectors):
        problems.append("m=6 byte-table check disagrees")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    record(1, "syndrome membership matches field-sum and weight-sum test",
           problems, elapsed)


def test_criterion_02_intersection_arrays(tables4, tables6):
    t0 = time.perf_counter()
    problems = []
    cases = [(4, 1, tables4), (4, 2, tables4),
             (6, 1, tables6), (6, 2, tables6), (6, 3, tables6)]
    for m, i, tables in cases:
        rep = verify_completely_regular(tables[i])
        want = cria_array(m, i)
        expected_literal = (
            ((1 << m) - 1, (1 << m) - (1 << (m - i)), 1),
            (1, 1 << (m - i), (1 << m) - 1),
        )
        if not rep.completely_regular:
            problems.append(f"m={m} i={i} not completely regular: {rep.witness}")
        elif (rep.array.b, rep.array.c) != expected_literal or rep.array != want:
            problems.append(f"m={m} i={i} array {rep.array} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 130.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds bound")
    record(2, "covering-radius-3 codes are completely regular with the stated arrays",
           problems, elapsed)


def test_criterion_03_extended_arrays(chain4, chain6):
    t0 = time.perf_counter()
    problems = []
    for m, chain in ((4, chain4), (6, chain6)):
        for i in range(1, m // 2 + 1):
            star = extend_code(chain[i])
            table = CosetTable(star)
            rep = verify_extended_array(star, table)
            if not rep.regularity.completely_regular:
                problems.append(f"m={m} i={i} extension not completely regular")
            if not rep.matches_extended_form:
                problems.append(
                    f"m={m} i={i} extended array {rep.regularity.array} "
                    f"!= {extended_cria_array(m, i)}"
                )
            if rep.matches_variant_form:
                problems.append(f"m={m} i={i} unexpectedly matches the +1 variant")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5min")
    record(3, "extensions match the length-2^m arrays and refute the +1 variant",
           problems, elapsed)


def test_criterion_04_designs(chain4, chain6):
    t0 = time.perf_counter()
    problems = []
    expected_lams = {4: (7, 3, 1), 6: (31, 15, 7, 3)}
    for m, chain in ((4, chain4), (6, chain6)):
        n = (1 << m) - 1
        for i, code in enumerate(chain):
            lam = expected_lams[m][i]
            if design_lambda(m, i) != lam:
                problems.append(f"m={m} i={i} lambda formula != {lam}")
            rep = check_design(code)
            if not (rep.ok and rep.lam == lam and rep.blocks == n * lam // 3):
                problems.append(
                    f"m={m} i={i} weight-3: ok={rep.ok} lam={rep.lam} "
                    f"count={rep.blocks}"
                )
            rep4 = check_design(extend_code(code))
            want4 = lam * comb(n + 1, 2) // comb(4, 2)
            if not (rep4.ok and rep4.lam == lam and rep4.blocks == want4):
                problems.append(
                    f"m={m} i={i} weight-4: ok={rep4.ok} lam={rep4.lam} "
                    f"count={rep4.blocks} want {want4}"
                )
    record(4, "weight-3 words form 1-designs and extended weight-4 words 2-designs",
           problems, time.perf_counter() - t0)


def test_criterion_05_dual_spectra(chain4, chain6):
    t0 = time.perf_counter()
    problems = []
    for m, chain in ((4, chain4), (6, chain6)):
        half, quarter, n = 1 << (m - 1), 1 << (m // 2 - 1), (1 << m) - 1
        for i in range(1, m // 2 + 1):
            sp = dual_spectrum(chain[i])
            if not set(sp.weights) <= {half - quarter, half, half + quarter}:
                problems.append(f"m={m} i={i} weights {sp.weights}")
            w1, w2, w3 = sp.weights
            if w1 + w3 != n + 1 or 2 * w2 != n + 1:
                problems.append(f"m={m} i={i} sum identity fails for {sp.weights}")
            if sp.s != 3:
                problems.append(f"m={m} i={i} external distance {sp.s} != 3")
            if dual_spectrum(extend_code(chain[i])).s != 4:
                problems.append(f"m={m} i={i} extended external distance != 4")
    record(5, "dual weights sit at 2^(m-1), 2^(m-1) +- 2^(u-1) with s=3 (4 extended)",
           problems, time.perf_counter() - t0)


def test_criterion_06_mu_identity(tables4, tables6):
    t0 = time.perf_counter()
    problems = []
    for m, tables in ((4, tables4), (6, tables6)):
        n = (1 << m) - 1
        for i, table in enumerate(tables):
            rep = verify_mu_identity(table, cria_array(m, i))
            want_mu = (1, n) if i == 0 else (1, n, ((1 << i) - 1) * n, (1 << i) - 1)
            if not rep.ok:
                problems.append(f"m={m} i={i} identity fails")
            if rep.mu != want_mu:
                problems.append(f"m={m} i={i} mu {rep.mu} != {want_mu}")
    record(6, "coset counts satisfy b_l mu_l = c_(l+1) mu_(l+1)",
           problems, time.perf_counter() - t0)


def test_criterion_07_transform_oracle(chain4):
    t0 = time.perf_counter()
    problems = []
    for code, label in ((chain4[2], "plain"), (extend_code(chain4[2]), "extended")):
        dists = list(coset_distributions(code))
        leaders = coset_leaders(code)
        words = list(codewords(code))
        expected_cosets = 64 if label == "plain" else 128
        if len(dists) != expected_cosets:
            problems.append(f"{label}: {len(dists)} cosets")
        per_weight = {}
        for s, (dist, leader) in enumerate(zip(dists, leaders)):
            hist = [0] * (code.length + 1)
            for c in words:
                hist[(leader ^ c).bit_count()] += 1
            if tuple(hist) != dist:
                problems.append(
                    f"{label} syndrome {s:#x}: transform differs "
                    f"from enumeration"
                )
                break
            per_weight.setdefault(leader.bit_count(), set()).add(dist)
        uniform = all(len(found) == 1 for found in per_weight.values())
        if distributions_uniform(code, CosetTable(code)) != uniform:
            problems.append(f"{label}: uniformity differs from enumeration")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 30s")
    record(7, "dual-transform coset distributions equal brute-force enumeration",
           problems, elapsed)


def test_criterion_08_complete_transitivity(chain4, tables4, chain6, tables6):
    t0 = time.perf_counter()
    problems = []
    for m, chain, tables in ((4, chain4, tables4), (6, chain6, tables6)):
        u = m // 2
        top = certify_transitivity(chain[u], tables[u])
        if not (top.certified and top.orbit_count == 4 and top.group.startswith("GL2")):
            problems.append(f"m={m} deepest level: {top.orbit_count} via {top.group}")
        mid = certify_transitivity(chain[1], tables[1])
        if not (mid.certified and mid.orbit_count == 4 and mid.group.startswith("SL2")):
            problems.append(f"m={m} level 1: {mid.orbit_count} via {mid.group}")
        base = certify_transitivity(chain[0], tables[0])
        if not (base.certified and base.orbit_count == 2):
            problems.append(f"m={m} base: {base.orbit_count} orbits")
        for i in (1, u):
            star = extend_code(chain[i])
            rep = certify_transitivity(star, CosetTable(star))
            if not (rep.orbit_count == 5 and rep.group.endswith("+translations")):
                problems.append(f"m={m} i={i} extended: {rep.orbit_count} via {rep.group}")
    for code, table in zip(chain6, tables6):
        rep = certify_transitivity(code, table)
        if not rep.certified:
            problems.append(f"m=6 i={rep.level} uncertified ({rep.orbit_count} orbits)")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 2min")
    record(8, "group actions give exactly rho+1 coset orbits at every level",
           problems, elapsed)


def test_criterion_09_graph_suite(chain4, chain6):
    t0 = time.perf_counter()
    problems = []
    for m, chain in ((4, chain4), (6, chain6)):
        u = m // 2
        codes, tables = {}, {}
        for i in range(u + 1):
            for ext in (False, True):
                codes[i, ext] = extend_code(chain[i]) if ext else chain[i]
                tables[i, ext] = CosetTable(codes[i, ext])
        for i in range(u + 1):
            # a coset graph is distance-regular with its code's array
            rep = verify_completely_regular(tables[i, False])
            diameter = tables[i, False].rho
            if not (rep.completely_regular and rep.array == cria_array(m, i)
                    and diameter == (1 if i == 0 else 3)):
                problems.append(f"m={m} i={i}: D={diameter} array={rep.array}")
            rep_ext = verify_completely_regular(tables[i, True])
            if i > 0 and not (rep_ext.completely_regular and tables[i, True].rho == 4
                              and rep_ext.array == extended_cria_array(m, i)):
                problems.append(f"m={m} i={i} extended: D={tables[i, True].rho}")
            if i > 0:
                anti = check_antipodal(tables[i, False])
                if not (anti.antipodal and anti.fibre_size == 1 << i):
                    problems.append(f"m={m} i={i}: fibre {anti.fibre_size}")
                elif not fold(chain[i], anti.fibres).is_complete:
                    problems.append(f"m={m} i={i}: fold is not complete")
                shape = verify_antipodal_cover_array(chain[i], tables[i, False])
                if not (shape.applicable and shape.matches):
                    problems.append(f"m={m} i={i}: cover array {shape.array}")
        for i in range(1, u + 1):
            for j in range(i):
                cover = verify_cover(chain[i], chain[j])
                if not (cover.verdict and cover.fibre_size == 1 << (i - j)):
                    problems.append(f"m={m} {i}->{j}: fibre {cover.fibre_size}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5min")
    record(9, "coset graphs: distance regularity, antipodality, folds and covers",
           problems, elapsed)


def all_subspaces(u, k):
    """Distinct k-dimensional subspaces of F_2^u, as frozensets of labels."""
    found = set()
    for rows in itertools.combinations(range(1, 1 << u), k):
        span = frozenset(gf2_span(list(rows)))
        if len(span) == 1 << k:
            found.add(span)
    return found


def count_chains_exhaustive(u):
    by_dim = [all_subspaces(u, k) for k in range(u + 1)]

    def descend(space, k):
        if k == 0:
            return 1
        return sum(descend(sub, k - 1) for sub in by_dim[k - 1] if sub < space)

    return descend(frozenset(range(1 << u)), u)


def test_criterion_10_family_counts():
    t0 = time.perf_counter()
    problems = []
    for u, want in ((2, 3), (3, 21)):
        if count_full_chains(u) != want:
            problems.append(f"u={u} chain formula {count_full_chains(u)} != {want}")
        if count_chains_exhaustive(u) != want:
            problems.append(f"u={u} exhaustive chain count != {want}")
        for i in range(u + 1):
            formula = count_codes_at_level(u, i)
            brute = len(all_subspaces(u, u - i))
            if formula != brute:
                problems.append(f"u={u} i={i} count {formula} != exhaustive {brute}")
    record(10, "chain and per-level counts match exhaustive flag enumeration",
           problems, time.perf_counter() - t0)
